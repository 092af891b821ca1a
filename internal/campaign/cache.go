package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Entry is the on-disk envelope of one cached cell: the full key (so
// entries are self-describing and auditable), the simulation wall time
// that produced it, and the JSON-encoded result.
type Entry struct {
	Key         Key             `json:"key"`
	WallSeconds float64         `json:"wall_seconds"`
	Result      json.RawMessage `json:"result"`
}

// Cache is a content-addressed result store: one "<digest>.json" file
// per cell under a flat directory. Writes are atomic (temp file +
// rename), so a killed run leaves either a complete entry or an ignored
// temporary — never a torn entry that could poison a resume.
type Cache struct {
	dir string
}

// OpenCache creates (if needed) and opens a cache directory.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: creating cache dir: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// JournalPath returns the completion journal's location inside the
// cache directory.
func (c *Cache) JournalPath() string { return filepath.Join(c.dir, "journal.jsonl") }

func (c *Cache) entryPath(digest string) string {
	return filepath.Join(c.dir, digest+".json")
}

// GetEntry returns the full cached envelope for a digest — what a fleet
// worker ships back to its coordinator, so the coordinator can store an
// identical entry. A missing or undecodable entry is a miss: the caller
// recomputes and Put overwrites whatever was there.
func (c *Cache) GetEntry(digest string) (Entry, bool) {
	data, err := c.read(digest)
	if err != nil {
		return Entry{}, false
	}
	var e Entry
	if DecodeEntry(data, &e) != nil {
		return Entry{}, false
	}
	return e, true
}

// read returns the bytes of a digest's entry file.
func (c *Cache) read(digest string) ([]byte, error) {
	return os.ReadFile(c.entryPath(digest))
}

// errNoResult rejects an entry whose envelope carries no result.
var errNoResult = errors.New("campaign: cache entry has no result")

// DecodeEntry decodes the bytes of an entry file. An entry that does
// not decode, or that carries no result, is an error: the cache treats
// it as a miss, and the recomputed entry overwrites it.
func DecodeEntry(data []byte, e *Entry) error {
	if err := json.Unmarshal(data, e); err != nil {
		return err
	}
	if len(e.Result) == 0 {
		return errNoResult
	}
	return nil
}

// Put stores an entry under its digest, atomically.
func (c *Cache) Put(digest string, e Entry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("campaign: encoding cache entry: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("campaign: cache write: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.entryPath(digest)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: cache write: %w", err)
	}
	return nil
}

// Len counts the complete entries currently in the cache (temporaries,
// the journal, and the progress checkpoint are excluded).
func (c *Cache) Len() (int, error) {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return 0, fmt.Errorf("campaign: reading cache dir: %w", err)
	}
	n := 0
	for _, de := range des {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".json") && de.Name() != "checkpoint.json" {
			n++
		}
	}
	return n, nil
}
