package serve

import (
	"reflect"
	"strings"
	"testing"

	"newton/internal/cluster"
)

// mtb builds a table backend serving several models, each with the
// given cumulative batch times.
func mtb(times map[int][]float64) *TableBackend {
	return &TableBackend{Label: "table", Times: times}
}

// A plan that always detects and allows two retries pins the exact
// retry arithmetic: 3 attempts, 2 retries, batch shed, device busy for
// all three attempts.
func TestRetryExhaustionShedsBatch(t *testing.T) {
	plan := cluster.RetryPlan{Seed: 1, DetectedPerLaunch: 1, MaxRetries: 2}
	shards := []cluster.Device{{Name: "s0", Backend: tb(100), Models: []int{0}, Retry: plan}}
	res, err := run(shards, []cluster.Request{{T: 0}}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := &res.Devices[0].Metrics
	if m.Arrived != 1 || m.Served != 0 || m.Shed != 1 {
		t.Fatalf("counters: arrived %d served %d shed %d", m.Arrived, m.Served, m.Shed)
	}
	if m.Retried != 2 {
		t.Fatalf("Retried = %d, want 2", m.Retried)
	}
	if m.Launches != 1 {
		t.Fatalf("Launches = %d, want 1", m.Launches)
	}
	// Three attempts x 100 cycles of device time.
	if m.LastCompletion != 300 {
		t.Fatalf("LastCompletion = %v, want 300", m.LastCompletion)
	}
	if tot := &res.Total; tot.Arrived != 1 || tot.Served != 0 || tot.Shed != 1 || tot.Retried != 2 {
		t.Fatalf("fleet total: arrived %d served %d shed %d retried %d", tot.Arrived, tot.Served, tot.Shed, tot.Retried)
	}
}

func TestRetriesAreDeterministicAndAccounted(t *testing.T) {
	reqs := make([]cluster.Request, 200)
	for i := range reqs {
		reqs[i] = cluster.Request{T: float64(i) * 50}
	}
	plan := cluster.RetryPlan{Seed: 7, DetectedPerLaunch: 0.3, MaxRetries: 3}
	replay := func() *cluster.Result {
		shards := []cluster.Device{{Name: "s0", Backend: tb(100), Models: []int{0}, Retry: plan}}
		res, err := run(shards, reqs, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := replay(), replay()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same plan+stream produced different results")
	}
	m := &a.Total
	if m.Retried == 0 {
		t.Fatal("30% detection rate over 200 launches retried nothing")
	}
	if m.Served == 0 {
		t.Fatal("nothing was served")
	}
	if m.Served+m.Shed != m.Arrived {
		t.Fatalf("conservation: served %d + shed %d != arrived %d", m.Served, m.Shed, m.Arrived)
	}
	if m.Retried > 0 && !strings.Contains(m.Summary(), "retried") {
		t.Fatalf("Summary does not surface retries: %q", m.Summary())
	}
}

func TestDegradationSlowsService(t *testing.T) {
	reqs := make([]cluster.Request, 50)
	for i := range reqs {
		reqs[i] = cluster.Request{T: float64(i) * 1000}
	}
	replay := func(penalty float64) (*cluster.Metrics, cluster.Health) {
		plan := cluster.RetryPlan{Seed: 3, DetectedPerLaunch: 0.4, MaxRetries: 5,
			DegradeAfter: 1, DegradedPenalty: penalty}
		shards := []cluster.Device{{Name: "s0", Backend: tb(100), Models: []int{0}, Retry: plan}}
		res, err := run(shards, reqs, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return &res.Devices[0].Metrics, res.Devices[0].Health
	}
	slow, health := replay(10)
	fast, _ := replay(1)
	if health != cluster.Degraded {
		t.Fatalf("health = %v, want degraded", health)
	}
	if slow.Service.Max() <= fast.Service.Max() {
		t.Fatalf("degraded max service %v not slower than healthy %v",
			slow.Service.Max(), fast.Service.Max())
	}
	// Same seed, same draws: only the penalty differs, so counters match.
	if slow.Retried != fast.Retried {
		t.Fatalf("penalty changed the retry draws: %d vs %d", slow.Retried, fast.Retried)
	}
}

func TestShardFailureFailsOverToReplica(t *testing.T) {
	// Shard A serves model 0 and dies at t=1000; replica B takes over
	// requests arriving from then on. B also serves its own model 1.
	times := map[int][]float64{0: {100}, 1: {100}}
	shards := []cluster.Device{
		{Name: "A", Backend: mtb(times), Models: []int{0}, FailAt: 1000, FailoverTo: "B"},
		{Name: "B", Backend: mtb(times), Models: []int{1, 0}},
	}
	reqs := []cluster.Request{
		{T: 0, Model: 0},    // served by A
		{T: 500, Model: 0},  // served by A
		{T: 1500, Model: 0}, // A is dead: rerouted to B
		{T: 1600, Model: 1}, // B's own traffic
		{T: 2000, Model: 0}, // rerouted to B
	}
	res, err := run(shards, reqs, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Devices[0], res.Devices[1]
	if a.Health != cluster.Failed {
		// A died at 1000 with nothing queued; it reports failed even
		// though it never reached a launch past FailAt.
		t.Fatalf("A health = %v", a.Health)
	}
	if a.Metrics.Served != 2 || a.Metrics.Shed != 0 {
		t.Fatalf("A served %d shed %d, want 2/0", a.Metrics.Served, a.Metrics.Shed)
	}
	if b.Metrics.Served != 3 {
		t.Fatalf("B served %d, want 3 (2 failed over + 1 own)", b.Metrics.Served)
	}
	if res.Total.Served != 5 || res.Total.Shed != 0 {
		t.Fatalf("total served %d shed %d", res.Total.Served, res.Total.Shed)
	}
}

func TestShardFailureWithoutFailoverSheds(t *testing.T) {
	shards := []cluster.Device{{Name: "A", Backend: tb(100), Models: []int{0}, FailAt: 1000}}
	reqs := []cluster.Request{
		{T: 0},    // served
		{T: 950},  // queued behind nothing, launches at 950 < 1000: served
		{T: 1500}, // arrives dead: shed
		{T: 1600}, // shed
	}
	res, err := run(shards, reqs, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Devices[0].Health != cluster.Failed {
		t.Fatalf("health = %v, want failed", res.Devices[0].Health)
	}
	m := &res.Total
	if m.Served != 2 || m.Shed != 2 || m.Arrived != 4 {
		t.Fatalf("served %d shed %d arrived %d, want 2/2/4", m.Served, m.Shed, m.Arrived)
	}
}

// The ShedOldest FIFO invariant: when the bounded queue overflows, the
// oldest waiter is the victim and the survivors keep admission order.
func TestShedOldestDropsOldestPreservesOrder(t *testing.T) {
	// Device busy until 1000 serving r0; queue depth 2. r1, r2 fill the
	// queue; r3 arrives and evicts r1 (the oldest waiter); r4 evicts r2.
	// The batch at 1000 serves r3 then r4 — in admission order.
	reqs := []cluster.Request{
		{T: 0},  // r0: launches immediately, busy to 1000
		{T: 10}, // r1: queued, evicted by r3
		{T: 20}, // r2: queued, evicted by r4
		{T: 30}, // r3: admitted via eviction
		{T: 40}, // r4: admitted via eviction
	}
	opt := cluster.Options{MaxBatch: 1, QueueDepth: 2, Shed: cluster.ShedOldest}
	res, err := run(oneShard(tb(1000)), reqs, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := &res.Devices[0].Metrics
	if m.Served != 3 || m.Shed != 2 {
		t.Fatalf("served %d shed %d, want 3/2", m.Served, m.Shed)
	}
	// r3 launches at 1000 (waited 970), r4 at 2000 (waited 1960): the
	// FIFO order of the surviving waiters, pinned through queue-wait.
	if max := m.QueueWait.Max(); max != 1960 {
		t.Fatalf("max queue wait %v, want 1960 (r4 served second)", max)
	}
	if p := m.QueueWait.Percentile(0.5); p != 970 {
		t.Fatalf("median queue wait %v, want 970 (r3 served first)", p)
	}
	// Latencies pin the exact serve order: r0 1000, r3 1970, r4 2960.
	if max := m.Latency.Max(); max != 2960 {
		t.Fatalf("max latency %v, want 2960", max)
	}
}
