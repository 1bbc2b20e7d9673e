package experiments

import (
	"strings"
	"testing"
)

func TestClusterStudy(t *testing.T) {
	c := Config{Channels: 24, Banks: 16, Seed: 3, ServingN: 4000}
	pts, sum, err := c.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(ClusterLoads) {
		t.Fatalf("%d points, want %d", len(pts), len(ClusterLoads))
	}
	if sum.Devices != ClusterDevices {
		t.Errorf("summary devices %d, want %d", sum.Devices, ClusterDevices)
	}
	if sum.NewtonService <= 0 {
		t.Errorf("batch-1 service %g, want > 0", sum.NewtonService)
	}
	for _, p := range pts {
		if p.NewtonTput <= 0 || p.GPUTput <= 0 {
			t.Errorf("load %g: zero throughput (newton %g, gpu %g)", p.QPS, p.NewtonTput, p.GPUTput)
		}
		if !(p.NewtonP50 <= p.NewtonP95 && p.NewtonP95 <= p.NewtonP99) {
			t.Errorf("load %g: newton percentiles not monotone: %g/%g/%g",
				p.QPS, p.NewtonP50, p.NewtonP95, p.NewtonP99)
		}
	}
	// At the lightest load every Newton request is served unbatched at
	// the device's measured service time: the fleet p50 is exactly it.
	if pts[0].NewtonP50 != sum.NewtonService {
		t.Errorf("light-load fleet p50 %g != batch-1 service %g", pts[0].NewtonP50, sum.NewtonService)
	}

	// The study replays identically.
	pts2, sum2, err := c.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if ClusterTable(pts, sum).Text() != ClusterTable(pts2, sum2).Text() {
		t.Error("fleet study is not deterministic")
	}

	csv := ClusterTable(pts, sum).CSV()
	if !strings.Contains(csv, "newton_p99") || strings.Count(csv, "\n") != len(pts)+1 {
		t.Errorf("CSV malformed:\n%s", csv)
	}
}
