package namenode

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/dfs"
	"repro/internal/simclock"
)

// Deterministic cost gates for the namenode's hot paths, run via `make
// bench-alloc`. They count allocations rather than time, so they hold
// on a loaded machine.

// TestOneBlockLocationsAllocsIndependentOfFileSize pins the one-block
// nn.getLocations form to O(1) work in the file's length: refreshing
// the last block of a 400-block file allocates exactly what refreshing
// the only block of a 1-block file does, with and without a job.
func TestOneBlockLocationsAllocsIndependentOfFileSize(t *testing.T) {
	for _, shards := range []int{0, 4} {
		run(t, func(v *simclock.Virtual) {
			h := newShardedHarness(t, v, 5, shards)
			defer h.nn.Close()
			small := h.mkFile(t, "/small", 1, 3)
			large := h.mkFile(t, "/large", 400, 3)
			for _, path := range []string{"/small", "/large"} {
				if _, err := h.nn.handleMigrate(dfs.MigrateReq{Job: "j", Paths: []string{path}, SubmitTime: v.Now()}); err != nil {
					t.Fatalf("migrate: %v", err)
				}
			}
			for _, job := range []dfs.JobID{"", "j"} {
				allocs := func(path string, id dfs.BlockID) float64 {
					req := dfs.GetLocationsReq{Path: path, Job: job, Block: id}
					return testing.AllocsPerRun(200, func() {
						if resp, err := h.nn.handleGetLocations(req); err != nil || len(resp.Blocks) != 1 {
							t.Fatalf("getLocations %s#%d: %+v, err %v", path, id, resp.Blocks, err)
						}
					})
				}
				a1 := allocs("/small", small[0].Block.ID)
				a400 := allocs("/large", large[len(large)-1].Block.ID)
				t.Logf("shards=%d job=%q: one-block getLocations allocs/op: 1-block file %.0f, 400-block file %.0f", shards, job, a1, a400)
				if a400 != a1 {
					t.Errorf("shards=%d job=%q: one-block getLocations allocs/op grows with file length: %.0f (1 block) vs %.0f (400 blocks)", shards, job, a1, a400)
				}
			}
		})
	}
}

// healthyNamespace builds a namespace of n fully replicated blocks over
// the equivPlacer's six nodes.
func healthyNamespace(t *testing.T, shards, n int) Namespace {
	t.Helper()
	var ns Namespace
	if shards == 0 {
		ns = newMemNamespace(7, equivPlacer())
	} else {
		ns = newShardedNamespace(shards, 7, equivPlacer())
	}
	const perFile = 100
	sizes := make([]int64, perFile)
	for i := range sizes {
		sizes[i] = 1 << 20
	}
	for f := 0; f < n/perFile; f++ {
		path := fmt.Sprintf("/d%d/f", f)
		if err := ns.Create(path, 1<<20, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := ns.Allocate(path, sizes, nil, nil, 0, true); err != nil {
			t.Fatal(err)
		}
	}
	return ns
}

// TestRepairScanHealthyAllocsConstant pins the repair sweep's cost on a
// healthy namespace: one pass over the block map, allocating only the
// per-sweep liveness snapshot — the same handful at 1k and 10k blocks.
func TestRepairScanHealthyAllocsConstant(t *testing.T) {
	live := map[string]bool{"a": true, "b": true, "c": true, "d": true, "e": true, "f": true, "dead": false}
	const ceiling = 8
	for _, shards := range []int{0, 1, 4} {
		var per [2]float64
		for i, n := range []int{1_000, 10_000} {
			ns := healthyNamespace(t, shards, n)
			per[i] = testing.AllocsPerRun(20, func() {
				if jobs := ns.RepairScan(live); len(jobs) != 0 {
					t.Fatalf("healthy namespace produced %d repair jobs", len(jobs))
				}
			})
		}
		t.Logf("shards=%d: RepairScan allocs/op on a healthy namespace: 1k blocks %.0f, 10k blocks %.0f", shards, per[0], per[1])
		if per[1] != per[0] || per[1] > ceiling {
			t.Errorf("shards=%d: RepairScan allocs/op %.0f (1k blocks), %.0f (10k blocks); want equal and <= %d", shards, per[0], per[1], ceiling)
		}
	}
}

// referenceScanForRepair is the historical repair scan, kept verbatim
// as the specification the allocation-free scan must reproduce: it
// hashes every holder's address into the liveness map and builds the
// holder and candidate lists for every block.
func referenceScanForRepair(blocks map[dfs.BlockID]*blockMeta, table *nodeTable, live map[string]bool, rngMu *sync.Mutex, rng *rand.Rand) []repairJob {
	var jobs []repairJob
	addrs := table.addrsView()
	for id, meta := range blocks {
		if meta.healing {
			continue
		}
		var holders []string
		holdsLive := func(addr string) bool {
			nid, ok := table.lookup(addr)
			return ok && meta.nodes.contains(nid)
		}
		for _, nid := range meta.nodes.view() {
			if live[addrs[nid]] {
				holders = append(holders, addrs[nid])
			}
		}
		if len(holders) == 0 || len(holders) >= int(meta.want) {
			continue
		}
		sort.Strings(holders)
		var candidates []string
		for addr, ok := range live {
			if !ok {
				continue
			}
			if !holdsLive(addr) {
				candidates = append(candidates, addr)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		sort.Strings(candidates)
		rngMu.Lock()
		target := candidates[rng.Intn(len(candidates))]
		source := holders[rng.Intn(len(holders))]
		rngMu.Unlock()
		meta.healing = true
		jobs = append(jobs, repairJob{
			block:  dfs.Block{ID: id, Size: meta.size},
			source: source,
			target: target,
		})
	}
	return jobs
}

// TestRepairScanMatchesReference checks the allocation-free scan against
// the historical one on randomized blocks: every mix of live, dead and
// over-replicated holders, with live datanodes the node table has never
// interned (fresh registrations) among the candidates. Blocks are
// compared one at a time with identically seeded rng streams, so the
// chosen source and target and the rng draws must match exactly —
// across several blocks the draw order follows map iteration, which
// neither scan fixes.
func TestRepairScanMatchesReference(t *testing.T) {
	table := newNodeTable()
	interned := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"}
	for _, a := range interned {
		table.intern(a)
	}
	rng := rand.New(rand.NewSource(3))
	jobsSeen := 0
	for trial := 0; trial < 2000; trial++ {
		live := map[string]bool{}
		for _, a := range interned {
			if rng.Intn(3) > 0 {
				live[a] = true
			} else if rng.Intn(2) == 0 {
				live[a] = false
			}
		}
		for i := rng.Intn(3); i > 0; i-- {
			live[fmt.Sprintf("fresh%d", i)] = true
		}
		var ids []nodeID
		for _, i := range rng.Perm(len(interned))[:rng.Intn(6)] {
			ids = append(ids, nodeID(i))
		}
		want := 1 + rng.Intn(4)
		mk := func() map[dfs.BlockID]*blockMeta {
			meta := &blockMeta{size: 1 << 20, want: uint16(want)}
			meta.nodes.reset(ids)
			return map[dfs.BlockID]*blockMeta{dfs.BlockID(trial + 1): meta}
		}
		seed := rng.Int63()
		var mu sync.Mutex
		refRng, gotRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		ref := referenceScanForRepair(mk(), table, live, &mu, refRng)
		got := scanShardForRepair(mk(), table, newRepairLiveness(table, live), &mu, gotRng)
		if !reflect.DeepEqual(got, ref) || gotRng.Int63() != refRng.Int63() {
			t.Fatalf("trial %d (holders %v, want %d, live %v): scan %+v, reference %+v", trial, ids, want, live, got, ref)
		}
		jobsSeen += len(ref)
	}
	if jobsSeen < 200 {
		t.Fatalf("only %d of 2000 trials were under-replicated; the comparison is too weak", jobsSeen)
	}
}
