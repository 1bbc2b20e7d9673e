package host

import (
	"testing"

	"newton/internal/dram"
	"newton/internal/layout"
)

func TestScrubRestoresCorruptedMatrix(t *testing.T) {
	cfg := testCfg()
	c, err := NewController(cfg, Newton())
	if err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(64, 700, 61)
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	v := randomVector(700, 62)
	clean, err := c.RunMVM(p, v)
	if err != nil {
		t.Fatal(err)
	}

	// Inject "transient errors": garbage into one of the matrix's rows
	// in every channel and bank.
	garbage := make([]byte, cfg.Geometry.RowBytes())
	for i := range garbage {
		garbage[i] = 0xFF
	}
	for ch := 0; ch < cfg.Geometry.Channels; ch++ {
		for b := 0; b < cfg.Geometry.Banks; b++ {
			if err := c.Engine(ch).Channel().Bank(b).MutateRow(p.BaseRow(), func(data []byte) { copy(data, garbage) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	dirty, err := c.RunMVM(p, v)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range clean.Output {
		if dirty.Output[i] != clean.Output[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("corruption had no effect; test is vacuous")
	}

	// Scrub re-loads the matrix from the host's copy; results recover.
	before := c.Stats()
	if err := c.Scrub(p); err != nil {
		t.Fatal(err)
	}
	scrubStats := c.Stats().Diff(before)
	restored, err := c.RunMVM(p, v)
	if err != nil {
		t.Fatal(err)
	}
	assertExact(t, restored.Output, clean.Output, "post-scrub")

	// The scrub wrote at least the matrix's live bytes over the PHY.
	if scrubStats.BytesWritten < m.SizeBytes() {
		t.Errorf("scrub wrote %d bytes, matrix is %d", scrubStats.BytesWritten, m.SizeBytes())
	}
	if scrubStats.Count(dram.KindWR) == 0 || scrubStats.Count(dram.KindACT) == 0 {
		t.Error("scrub issued no write stream")
	}
}

func TestScrubOverheadSmallWhenAmortized(t *testing.T) {
	// The paper's point: one re-load per ~1000 inputs is a trivial
	// bandwidth overhead. A scrub costs about one ideal-stream pass, an
	// order of magnitude more than one Newton product - amortized over
	// 1000 products it is under a few percent.
	c, err := NewController(testCfg(), Newton())
	if err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(128, 1024, 63)
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	v := randomVector(1024, 64)
	start := c.Now()
	if _, err := c.RunMVM(p, v); err != nil {
		t.Fatal(err)
	}
	mvm := c.Now() - start

	start = c.Now()
	if err := c.Scrub(p); err != nil {
		t.Fatal(err)
	}
	scrub := c.Now() - start
	perInput := float64(scrub) / 1000
	if overhead := perInput / float64(mvm); overhead > 0.05 {
		t.Errorf("amortized scrub overhead %.1f%%, want < 5%%", 100*overhead)
	}
}

func TestScrubPreservesConventionalData(t *testing.T) {
	// The scrub rewrites only the matrix's reserved rows; ordinary data
	// in the same banks (different rows) must survive.
	c, err := NewController(testCfg(), Newton())
	if err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(64, 700, 65)
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.AllocConventional(32 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives the scrub")
	if err := c.WriteConventional(r, 100, payload); err != nil {
		t.Fatal(err)
	}
	if err := c.Scrub(p); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadConventional(r, 100, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("scrub clobbered conventional data: %q", got)
	}
}

func TestScrubIdempotent(t *testing.T) {
	c, err := NewController(testCfg(), Newton())
	if err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(48, 600, 66)
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	v := randomVector(600, 67)
	base, err := c.RunMVM(p, v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.Scrub(p); err != nil {
			t.Fatal(err)
		}
	}
	again, err := c.RunMVM(p, v)
	if err != nil {
		t.Fatal(err)
	}
	assertExact(t, again.Output, base.Output, "double scrub")
}
