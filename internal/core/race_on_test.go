//go:build race

package core

// raceEnabled lets wall-clock tests skip under the race detector, whose
// slowdown differs between the stepped loop and the event engine.
const raceEnabled = true
