package experiments

import (
	"fmt"

	"newton/internal/host"
	"newton/internal/layout"
	"newton/internal/workloads"
)

// MultiTenantResult quantifies channel partitioning (§III-D issue 4:
// Newton processes one model at a time per channel, but "different
// models can operate simultaneously in different channels"): a
// latency-critical small model gets its own channels, isolating it from
// a large co-resident model at a bounded cost to the latter.
type MultiTenantResult struct {
	// Workload labels and partition sizes.
	A, B                 string
	ChannelsA, ChannelsB int
	// SharedLatencyA is A's worst-case latency when serialized behind B
	// on the whole device (a query arriving as B starts must wait B out:
	// the same-channel exclusivity the paper states).
	SharedLatencyA int64
	// PartitionedLatencyA is A's latency on its own partition.
	PartitionedLatencyA int64
	// LatencyGain is the isolation win for A.
	LatencyGain float64
	// BFullCycles / BPartitionCycles are B on the whole device vs on its
	// reduced partition; BSlowdown is the price of isolation.
	BFullCycles, BPartitionCycles int64
	BSlowdown                     float64
}

// MultiTenant gives DLRM-s1 (latency-critical, small) a private channel
// partition next to GNMT-s1 (throughput, large) on the remaining
// channels, and measures the isolation win and its price.
func (c Config) MultiTenant() (MultiTenantResult, error) {
	a, _ := workloads.ByName("DLRM-s1")
	b, _ := workloads.ByName("GNMT-s1")
	chA := c.Channels / 6
	if chA < 1 {
		chA = 1
	}
	chB := c.Channels - chA
	res := MultiTenantResult{
		A: a.Name, B: b.Name,
		ChannelsA: chA, ChannelsB: chB,
	}

	run := func(bench workloads.Bench, channels int) (int64, error) {
		cfg := c.dramConfig(c.Banks, true)
		cfg.Geometry.Channels = channels
		ctrl, err := host.NewController(cfg, c.paperNewton())
		if err != nil {
			return 0, err
		}
		m := layout.RandomMatrix(bench.Rows, bench.Cols, c.Seed)
		p, err := ctrl.Place(m)
		if err != nil {
			return 0, err
		}
		r, err := ctrl.RunMVM(p, c.inputFor(bench.Cols))
		if err != nil {
			return 0, err
		}
		return r.Cycles, nil
	}

	// Shared device: an A query arriving as B starts waits B out, then
	// runs - the per-channel exclusivity of §III-D.
	aFull, err := run(a, c.Channels)
	if err != nil {
		return res, fmt.Errorf("multi-tenant shared %s: %w", a.Name, err)
	}
	res.BFullCycles, err = run(b, c.Channels)
	if err != nil {
		return res, fmt.Errorf("multi-tenant shared %s: %w", b.Name, err)
	}
	res.SharedLatencyA = res.BFullCycles + aFull

	// Partitioned: A owns chA channels outright; B pays for the
	// channels it gave up.
	res.PartitionedLatencyA, err = run(a, chA)
	if err != nil {
		return res, fmt.Errorf("multi-tenant partition %s: %w", a.Name, err)
	}
	res.BPartitionCycles, err = run(b, chB)
	if err != nil {
		return res, fmt.Errorf("multi-tenant partition %s: %w", b.Name, err)
	}
	res.LatencyGain = float64(res.SharedLatencyA) / float64(res.PartitionedLatencyA)
	res.BSlowdown = float64(res.BPartitionCycles) / float64(res.BFullCycles)
	return res, nil
}

// MultiTenantTable is the multi-tenancy study, one quantity a row.
func MultiTenantTable(r MultiTenantResult) Table {
	return Table{
		Title: []string{"SIII-D multi-tenancy: different models in different channels"},
		Cols:  []Cell{{"quantity", "quantity"}, {"cycles", "value"}},
		Rows: [][]Cell{
			{cellStr(fmt.Sprintf("%s worst-case latency, shared device (queued behind %s)", r.A, r.B)),
				cellInt(r.SharedLatencyA)},
			{cellStr(fmt.Sprintf("%s latency, partitioned onto %d private channels", r.A, r.ChannelsA)),
				cellInt(r.PartitionedLatencyA)},
			{cellStr("latency isolation gain"), cellf("%.1fx", r.LatencyGain)},
			{cellStr(fmt.Sprintf("%s cost: %d -> %d channels", r.B, r.ChannelsA+r.ChannelsB, r.ChannelsB)),
				cellf("%.2fx slower", r.BSlowdown)},
		},
		Results: r,
	}
}
