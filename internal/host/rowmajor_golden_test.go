package host

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"newton/internal/dram"
	"newton/internal/layout"
)

// rowMajorGoldenCase is one point of the row-major schedules' pinned grid.
type rowMajorGoldenCase struct {
	family     dram.Family
	schedule   string
	rows, cols int
}

func (c rowMajorGoldenCase) String() string {
	return fmt.Sprintf("%s/%s/%dx%d", c.family, c.schedule, c.rows, c.cols)
}

// rowMajorSchedules are the row-major (Reuse off) design points: the
// Fig. 9 non-opt rung, Newton-no-reuse and the §III-C quad-latch point.
var rowMajorSchedules = []struct {
	name string
	opts func() Options
}{{"nonopt", NonOpt}, {"noreuse", NoReuse}, {"quadlatch", QuadLatch}}

// streamHash is a dram.Observer that hashes every issued command of one
// channel with its cycle, operands and data.
type streamHash struct {
	ch int
	h  hash.Hash
}

func (s *streamHash) Observe(cmd dram.Command, cycle int64) {
	fmt.Fprintf(s.h, "%d %d %v %d %d %d %d %d %d %d %x\n", s.ch, cycle, cmd.Kind,
		cmd.Bank, cmd.Cluster, cmd.Row, cmd.Col, cmd.Latch, cmd.Slot, cmd.AF, cmd.Data)
}

// rowMajorDigest runs one case's session — place, then three runs on
// fresh inputs with Advance(4321) between them — with the channels
// simulated serially, and hashes every issued command (read through
// per-channel engine observers, which leave the row step on), each
// run's output bits, cycle bounds, per-channel cycles and stats, then
// the final clock and cumulative stats. It also returns the session's
// refresh count.
func rowMajorDigest(t *testing.T, c rowMajorGoldenCase, opts Options) (string, int64) {
	t.Helper()
	cfg, _ := dram.FamilyConfig(c.family, 2)
	opts.Parallel = ParallelOff
	h, err := NewController(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := sha256.New()
	for ch := 0; ch < cfg.Geometry.Channels; ch++ {
		h.Engine(ch).SetObserver(&streamHash{ch: ch, h: d})
	}
	m := layout.RandomMatrix(c.rows, c.cols, 71)
	p, err := h.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		res, err := h.RunMVM(p, randomVector(c.cols, int64(72+run)))
		if err != nil {
			t.Fatalf("%v run %d: %v", c, run, err)
		}
		for _, o := range res.Output {
			fmt.Fprintf(d, "%08x ", math.Float32bits(o))
		}
		fmt.Fprintf(d, "\n%d %d %d %v %+v\n", res.StartCycle, res.EndCycle, res.Cycles, res.PerChannelCycles, res.Stats)
		if run < 2 {
			h.Advance(4321)
		}
	}
	fmt.Fprintf(d, "%d %+v\n", h.Now(), h.Stats())
	return hex.EncodeToString(d.Sum(nil)), h.Stats().Refreshes
}

// TestRowMajorGolden pins the row-major schedules' sessions over every
// DRAM family: a shape smaller than one tile per channel, ragged
// quad-latch groups, and shapes long enough to refresh inside a run. The
// file was recorded while Newton-no-reuse and the quad-latch point ran
// on separate schedules, so any change to the command order, the refresh
// placement or the outputs of the one row-major schedule shows up as a
// changed case. Set NEWTON_WRITE_GOLDEN=1 to regenerate after an
// intentional change to the schedule.
func TestRowMajorGolden(t *testing.T) {
	var got bytes.Buffer
	fmt.Fprintf(&got, "# SHA-256 of the row-major schedules' session per case (see TestRowMajorGolden).\n")
	refreshes := map[string]int64{}
	for _, f := range dram.Families() {
		for _, s := range rowMajorSchedules {
			for _, shape := range [][2]int{{8, 64}, {96, 600}, {160, 1100}, {512, 1536}} {
				c := rowMajorGoldenCase{f, s.name, shape[0], shape[1]}
				digest, n := rowMajorDigest(t, c, s.opts())
				fmt.Fprintf(&got, "%v %s\n", c, digest)
				refreshes[s.name] += n
			}
		}
	}
	for _, s := range rowMajorSchedules {
		if refreshes[s.name] == 0 {
			t.Errorf("no %s case refreshed: the golden no longer guards its refresh placement", s.name)
		}
	}
	path := filepath.Join("testdata", "rowmajor_golden.txt")
	if os.Getenv("NEWTON_WRITE_GOLDEN") != "" {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (set NEWTON_WRITE_GOLDEN=1 to regenerate)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, %s has %d", len(gotLines), path, len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("got  %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
