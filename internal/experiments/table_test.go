package experiments

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"newton/internal/dram"
	"newton/internal/workloads"
)

// Fixed study results for TestTableGolden: no simulation runs, so the
// golden pins only how each study's rows are rendered. The serving and
// cluster footers take both branches (a crossover found and none) and
// the fault title both MaxPerWord labels.
var (
	gFig8 = []Fig8LayerRow{
		{Name: "GNMT-s1", NewtonCycles: 11676, NonOptCycles: 345916, IdealCycles: 113245,
			GPUCycles: 654321.5, Newton: 56.0399, NonOpt: 1.89155, Ideal: 5.77787},
		{Name: "DLRM-s1", NewtonCycles: 1203, NonOptCycles: 20480, IdealCycles: 9876,
			GPUCycles: 50000, Newton: 41.5628, NonOpt: 2.44141, Ideal: 5.06278},
	}
	gFig8Sum = Fig8Summary{Newton: 48.2606, NonOpt: 2.14891, Ideal: 5.40841, NewtonOverIdeal: 9.06}
	gFig8E2E = []Fig8E2ERow{
		{Name: "GNMT", NewtonCycles: 123456.5, GPUCycles: 6543210, Refreshes: 12, Speedup: 53.0007},
		{Name: "AlexNet", NewtonCycles: 987654.25, GPUCycles: 1975308.5, Refreshes: 0, Speedup: 2},
	}
	gE2E = []E2ERow{
		{Name: "GNMT", DeviceCycles: 90210, DeviceInstrs: 1536, DeviceRefreshes: 4, PerLayerCycles: 92000,
			HostLoopCycles: []int64{92000, 95000}, Ratio: 1.05310, MaxAbsDiff: 0},
		{Name: "DLRM", DeviceCycles: 4100, DeviceInstrs: 96, DeviceRefreshes: 0, PerLayerCycles: 9000,
			HostLoopCycles: []int64{10250, 12750}, Ratio: 3.10976, MaxAbsDiff: 0.00390625},
	}
	gFig9 = []Fig9Row{
		{Name: "GNMT-s1", Speedups: []float64{1.79, 5.2, 9.87, 20.5, 41.25, 56.04, 61.1}},
		{Name: "DLRM-s1", Speedups: []float64{2.44, 6.125, 10.5, 18, 33.3, 41.56, 44}},
	}
	gFig9Means = []float64{2.09, 5.64, 10.18, 19.21, 37.06, 48.26, 51.85}
	gFig10     = []Fig10Row{
		{Name: "GNMT-s1", Speedups: []float64{31.5, 56.04, 81.8}},
		{Name: "BERT-s2", Speedups: []float64{27.25, 46.5, 50.2}},
	}
	gFig10Means     = []float64{29.3, 51.05, 64.08}
	gFig10Predicted = []float64{6.21, 11.43, 19.6}
	gFig11          = []BatchRow{
		{Name: "GNMT-s1", Batches: []int{1, 2, 4, 8, 16}, Newton: []float64{56.04, 56.04, 56.04, 56.04, 56.04},
			Baseline: []float64{5.78, 11.56, 23.11, 46.2, 92.45}},
		{Name: "DLRM-s1", Batches: []int{1, 2, 4, 8, 16}, Newton: []float64{41.56, 41.56, 41.56, 41.56, 41.56},
			Baseline: []float64{5.06, 10.13, 20.25, 40.5, 81}},
	}
	gFig12 = []BatchRow{
		{Name: "GNMT-s1", Batches: []int{1, 4, 16, 64}, Newton: []float64{56.04, 56.04, 56.04, 56.04},
			Baseline: []float64{1, 3.98, 15.75, 60.5}},
	}
	gFig13 = []Fig13Row{
		{Name: "GNMT-s1", AvgPower: 2.4625, ComputeFraction: 0.875, EnergyRatio: 0.2525},
		{Name: "DLRM-s1", AvgPower: 2.125, ComputeFraction: 0.71, EnergyRatio: 0.3125},
	}
	gModel = []ModelValidationRow{
		{Name: "GNMT-s1", Predicted: 11.43, Measured: 9.7, ErrorPct: -15.1356},
		{Name: "AlexNet-L6", Predicted: 11.43, Measured: 11.6, ErrorPct: 1.4873},
	}
	gChannels = []ChannelRow{
		{Channels: 6, NewtonCycles: 46704, IdealCycles: 452980, SpeedupOverIdeal: 9.69895, Scaling: 1},
		{Channels: 48, NewtonCycles: 5838, IdealCycles: 56622, SpeedupOverIdeal: 9.69887, Scaling: 8},
	}
	gMultiTenant = MultiTenantResult{A: "DLRM-s1", B: "GNMT-s1", ChannelsA: 4, ChannelsB: 20,
		SharedLatencyA: 12879, PartitionedLatencyA: 4812, LatencyGain: 2.67643,
		BFullCycles: 11676, BPartitionCycles: 14011, BSlowdown: 1.19998}
	gServing = []ServingPoint{
		{QPS: 1000, NewtonP50: 1203, NewtonP99: 1203, GPUP50: 5210.5, GPUP99: 5210.5,
			NewtonBatch: 1, GPUBatch: 1, NewtonTput: 999.1, GPUTput: 999.1},
		{QPS: 2e6, NewtonP50: 40250, NewtonP99: 1.5e6, GPUP50: 9800, GPUP99: 22000,
			NewtonBatch: 1, GPUBatch: 17.25, NewtonTput: 831255, GPUTput: 1999876},
	}
	gServingSum = ServingSummary{Bench: workloads.Bench{Name: "DLRM-s1", Rows: 512, Cols: 256},
		Requests: 500, NewtonService: 1203, GPUBatch1: 5210.5, CrossoverQPS: 2e6}
	gCluster = []ClusterPoint{
		{QPS: 1e6, NewtonP50: 1203, NewtonP95: 1500, NewtonP99: 2406, GPUP50: 5210.5, GPUP95: 7000, GPUP99: 9000,
			NewtonTput: 999876, GPUTput: 999876},
		{QPS: 1.5e7, NewtonP50: 3200, NewtonP95: 45000, NewtonP99: 90000, GPUP50: 15000, GPUP95: 40000, GPUP99: 95000,
			NewtonTput: 3.3125e6, GPUTput: 1.499e7},
	}
	gClusterSum = ClusterSummary{Bench: workloads.Bench{Name: "DLRM-s1", Rows: 512, Cols: 256},
		Devices: 4, Requests: 500, NewtonService: 1203, NewtonFleetQPS: 3.3125e6}
	gFault = []FaultPoint{
		{BER: 1e-6, Protected: false, Injected: 3, WordsTouched: 3, SDCWords: 3, SDCBits: 3,
			RelL2: 0.0123456, MaxULP: 12345, Availability: 1},
		{BER: 1e-4, Protected: true, Injected: 301, WordsTouched: 297, Corrected: 293, Detected: 4, Refetched: 4,
			Availability: 0.9975},
		{BER: 1e-3, Protected: false, Injected: 2980, WordsTouched: 2700, SDCWords: 2700, SDCBits: 2980,
			RelL2: math.Inf(1), MaxULP: 2139095040, Availability: 1},
	}
	gFaultSum = FaultSummary{Model: "fault-mlp", Layers: 2, Words: 36864, MaxPerWord: 0, Requests: 500, ServiceNs: 3120}
	gCoexist  = []CoexistPoint{
		{Policy: "pim-priority", Intensity: 0.5, HostGBs: 0.0312, HostP50: 2100, HostP95: 4000, HostP99: 6021,
			PIMP50: 11676, PIMP99: 11700, StallCycles: 0, Served: 12},
		{Policy: "mem-priority", Intensity: 32, HostGBs: 12.875, HostP50: 61, HostP95: 90, HostP99: 140,
			PIMP50: 23010, PIMP99: 25001, StallCycles: 98765, Served: 44321},
	}
	gFamilies = []FamilyRow{
		{Family: dram.FamilyHBM2E, Banks: 16, MACsPerBank: 16, RowBytes: 2048, NewtonCycles: 11676,
			IdealCycles: 113245, Speedup: 9.69895, Predicted: 11.43},
		{Family: dram.FamilyGDDR6, Banks: 16, MACsPerBank: 16, RowBytes: 2048, NewtonCycles: 14010,
			IdealCycles: 150002, Speedup: 10.7068, Predicted: 11.9},
	}
	gNoReuse = []NoReuseRow{
		{Name: "GNMT-s1", NewtonCycles: 11676, NoReuseCycles: 40123, QuadLatchCycles: 15012,
			Slowdown: 3.43637, InputBytesNewton: 2048, InputBytesNoReuse: 524288},
		{Name: "DLRM-s1", NewtonCycles: 1203, NoReuseCycles: 1900, QuadLatchCycles: 1500,
			Slowdown: 1.57938, InputBytesNewton: 0, InputBytesNoReuse: 16384},
	}
)

// goldenTable is one study's table built from the fixed rows. The
// serving, cluster and fault variants are recorded as text only.
type goldenTable struct {
	name     string
	t        Table
	textOnly bool
}

// goldenTables builds every study's table in -fig all order, each
// variant after its study.
func goldenTables() []goldenTable {
	noCrossover, crossover, capped := gServingSum, gClusterSum, gFaultSum
	noCrossover.CrossoverQPS, crossover.CrossoverQPS, capped.MaxPerWord = 0, 1.5e7, 1
	return []goldenTable{
		{"8", Fig8LayersTable(gFig8, gFig8Sum), false},
		{"8e2e", Fig8EndToEndTable(gFig8E2E, 17.2), false},
		{"e2e", E2ETable(gE2E, 1.80967), false},
		{"9", Fig9Table(gFig9, gFig9Means), false},
		{"10", Fig10Table(gFig10, gFig10Means, gFig10Predicted), false},
		{"11", Fig11Table(gFig11), false},
		{"12", Fig12Table(gFig12), false},
		{"13", Fig13Table(gFig13, 2.28754), false},
		{"model", ModelValidationTable(gModel), false},
		{"channels", ChannelScalingTable(gChannels), false},
		{"multitenant", MultiTenantTable(gMultiTenant), false},
		{"serving", ServingTable(gServing, gServingSum), false},
		{"serving-no-crossover", ServingTable(gServing, noCrossover), true},
		{"cluster", ClusterTable(gCluster, gClusterSum), false},
		{"cluster-crossover", ClusterTable(gCluster, crossover), true},
		{"fault", FaultTable(gFault, gFaultSum), false},
		{"fault-max-per-word-1", FaultTable(gFault, capped), true},
		{"coexist", CoexistenceTable(gCoexist), false},
		{"families", FamiliesTable(gFamilies), false},
		{"noreuse", NoReuseTable(gNoReuse), false},
	}
}

// goldenEntry is one recorded output: <study>.<form>, where form is
// text, csv or json.
type goldenEntry struct{ name, got string }

// tableEntries renders every golden table in each of its forms.
func tableEntries(t *testing.T) []goldenEntry {
	var out []goldenEntry
	for _, g := range goldenTables() {
		out = append(out, goldenEntry{g.name + ".text", g.t.Text()})
		if g.textOnly {
			continue
		}
		js, err := g.t.JSON()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		out = append(out, goldenEntry{g.name + ".csv", g.t.CSV()}, goldenEntry{g.name + ".json", string(js)})
	}
	return out
}

const tablesGolden = "testdata/tables_golden.txt"

// TestTableGolden holds every study's text, CSV and JSON forms, rendered
// from fixed rows, to testdata/tables_golden.txt byte for byte. Every
// table must have one cell per column in each row and one string per
// text column in each summary row, every CSV must read back with one
// field count on every record, and every JSON document must be valid.
// Set NEWTON_WRITE_GOLDEN=1 to rewrite recorded entries in place and
// append new ones.
func TestTableGolden(t *testing.T) {
	for _, g := range goldenTables() {
		text := g.t.records(false)[0]
		for i, r := range g.t.Rows {
			if len(r) != len(g.t.Cols) {
				t.Errorf("%s: row %d has %d cells for %d columns", g.name, i, len(r), len(g.t.Cols))
			}
		}
		for i, r := range g.t.Summary {
			if len(r) != len(text) {
				t.Errorf("%s: summary row %d has %d cells for %d text columns", g.name, i, len(r), len(text))
			}
		}
	}
	entries := tableEntries(t)
	if os.Getenv("NEWTON_WRITE_GOLDEN") != "" {
		writeGolden(t, entries)
		return
	}
	want := readGolden(t)
	seen := map[string]bool{}
	for _, e := range entries {
		seen[e.name] = true
		w, ok := want[e.name]
		switch {
		case !ok:
			t.Errorf("%s: no golden entry (set NEWTON_WRITE_GOLDEN=1 to append it)", e.name)
		case e.got != w:
			t.Errorf("%s differs from the golden (set NEWTON_WRITE_GOLDEN=1 to regenerate after an intentional change):\n--- got\n%s--- want\n%s", e.name, e.got, w)
		}
		switch {
		case strings.HasSuffix(e.name, ".csv"):
			r := csv.NewReader(strings.NewReader(e.got))
			if _, err := r.ReadAll(); err != nil {
				t.Errorf("%s does not read back as CSV: %v", e.name, err)
			}
		case strings.HasSuffix(e.name, ".json"):
			if !json.Valid([]byte(e.got)) {
				t.Errorf("%s is not valid JSON", e.name)
			}
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("golden entry %s is no longer produced", name)
		}
	}
}

// readGolden parses the golden file: each entry is a "-- name --" line
// followed by its bytes.
func readGolden(t *testing.T) map[string]string {
	names, bodies := parseGolden(t)
	m := make(map[string]string, len(names))
	for i, n := range names {
		m[n] = bodies[i]
	}
	return m
}

func parseGolden(t *testing.T) (names, bodies []string) {
	data, err := os.ReadFile(tablesGolden)
	if err != nil {
		if os.IsNotExist(err) && os.Getenv("NEWTON_WRITE_GOLDEN") != "" {
			return nil, nil
		}
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "-- "); ok && strings.HasSuffix(name, " --") {
			names = append(names, strings.TrimSuffix(name, " --"))
			bodies = append(bodies, "")
			continue
		}
		if len(names) == 0 {
			t.Fatalf("%s: content before the first entry", tablesGolden)
		}
		bodies[len(bodies)-1] += line + "\n"
	}
	return names, bodies
}

// writeGolden rewrites existing entries in place and appends new ones,
// so an added form never moves a recorded one.
func writeGolden(t *testing.T, entries []goldenEntry) {
	names, bodies := parseGolden(t)
	index := map[string]int{}
	for i, n := range names {
		index[n] = i
	}
	for _, e := range entries {
		if i, ok := index[e.name]; ok {
			bodies[i] = e.got
			continue
		}
		names, bodies = append(names, e.name), append(bodies, e.got)
	}
	var sb strings.Builder
	for i, n := range names {
		sb.WriteString("-- " + n + " --\n" + bodies[i])
	}
	if err := os.MkdirAll(filepath.Dir(tablesGolden), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tablesGolden, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
