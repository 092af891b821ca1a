package duplexity

import "testing"

func TestPublicAPIProvisioning(t *testing.T) {
	n, err := ProvisionContexts(ProvisionDemand{BatchStallFrac: 0.5, MasterBorrows: true})
	if err != nil {
		t.Fatal(err)
	}
	if n != 32 {
		t.Fatalf("pessimistic provisioning %d, want 32 (Section IV)", n)
	}
	o, err := NewStallObserver(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Record(500, 1000); err != nil {
		t.Fatal(err)
	}
	if got, err := o.Recommend(false, 0.9); err != nil || got < 19 {
		t.Fatalf("recommendation %d (%v)", got, err)
	}
}

func TestPublicAPIChip(t *testing.T) {
	spec := FLANNLL()
	var masters []Stream
	var batches [][]Stream
	for i := 0; i < 2; i++ {
		m, err := spec.NewMaster(0.5, DesignDuplexity.FreqGHz(), uint64(i+9))
		if err != nil {
			t.Fatal(err)
		}
		masters = append(masters, m)
		batches = append(batches, BatchSet(16, uint64(i*50)))
	}
	c, err := NewChip(ChipConfig{Design: DesignDuplexity, Masters: masters, Batches: batches})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(600_000)
	if c.MeanMasterUtilization() <= 0 {
		t.Fatal("chip idle")
	}
	if c.Latencies().Count() == 0 {
		t.Fatal("no chip latencies")
	}
}
