package namenode

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// equivPlacer is a deterministic placeFunc for driving a Namespace
// without a NameNode: it shuffles a fixed node list with the namespace's
// own rng stream and takes the first rep non-excluded addresses — the
// same shape as the real placeTargets, so every call draws the rng.
func equivPlacer() placeFunc {
	nodes := []string{"a", "b", "c", "d", "e", "f"}
	return func(rng *rand.Rand, rep int, exclude []string) []string {
		cand := append([]string(nil), nodes...)
		rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
		skip := make(map[string]bool, len(exclude))
		for _, e := range exclude {
			skip[e] = true
		}
		var out []string
		for _, n := range cand {
			if len(out) == rep {
				break
			}
			if !skip[n] {
				out = append(out, n)
			}
		}
		return out
	}
}

// transcript records every Namespace result in a normalized textual
// form, so two implementations can be compared step by step.
type transcript struct {
	lines []string
}

func (tr *transcript) addf(format string, args ...any) {
	tr.lines = append(tr.lines, fmt.Sprintf(format, args...))
}

func (tr *transcript) err(op string, err error) {
	tr.addf("%s err=%v", op, err)
}

func (tr *transcript) located(op string, lbs []dfs.LocatedBlock, err error) {
	tr.err(op, err)
	for _, lb := range lbs {
		tr.addf("  block=%d size=%d off=%d nodes=%v", lb.Block.ID, lb.Block.Size, lb.Offset, lb.Nodes)
	}
}

func (tr *transcript) resolved(op string, rbs []resolvedBlock, err error) {
	tr.err(op, err)
	for _, rb := range rbs {
		nodes := append([]string(nil), rb.nodes...)
		pinned := append([]string(nil), rb.pinned...)
		sort.Strings(nodes)
		sort.Strings(pinned)
		tr.addf("  block=%d size=%d off=%d nodes=%v pinned=%v", rb.block.ID, rb.block.Size, rb.offset, nodes, pinned)
	}
}

// driveNamespace runs a fixed metadata workload — creates, single and
// batched allocations, idempotent replays, retarget, seal, lookups,
// reconcile, pin deltas, repair, delete — and returns the normalized
// transcript of every result.
func driveNamespace(ns Namespace) []string {
	tr := &transcript{}
	tr.addf("shards=%d", ns.Shards())

	tr.err("create /a/x", ns.Create("/a/x", 1<<20, 2))
	tr.err("create /a/y", ns.Create("/a/y", 1<<20, 2))
	tr.err("create /b/z", ns.Create("/b/z", 1<<20, 3))
	tr.err("create dup /a/x", ns.Create("/a/x", 1<<20, 2))

	lbs, err := ns.Allocate("/a/x", []int64{1 << 20}, nil, nil, 1, false)
	tr.located("alloc /a/x 1", lbs, err)
	lbs, err = ns.Allocate("/a/x", []int64{1 << 20, 1 << 19}, nil, nil, 2, true)
	tr.located("alloc /a/x batch", lbs, err)
	// A replay of the latest request ID with the same shape must return
	// the cached result without drawing the rng again.
	lbs, err = ns.Allocate("/a/x", []int64{1 << 20, 1 << 19}, nil, nil, 2, true)
	tr.located("alloc /a/x batch replay", lbs, err)
	lbs, err = ns.Allocate("/b/z", []int64{1 << 20}, nil, []string{"a"}, 3, false)
	tr.located("alloc /b/z exclude=a", lbs, err)
	_, err = ns.Allocate("/missing", []int64{1}, nil, nil, 0, false)
	tr.err("alloc /missing", err)

	first, err := ns.Resolve("/a/x", 0)
	tr.resolved("resolve /a/x", first, err)
	lb, err := ns.Retarget("/a/x", first[0].block.ID, []string{"b"})
	tr.located("retarget /a/x", []dfs.LocatedBlock{lb}, err)

	tr.err("complete /a/x", ns.Complete("/a/x"))
	_, err = ns.Allocate("/a/x", []int64{1}, nil, nil, 4, false)
	tr.err("alloc sealed /a/x", err)

	info, err := ns.Info("/a/x")
	tr.addf("info /a/x = %+v err=%v", info, err)
	_, err = ns.Info("/missing")
	tr.err("info /missing", err)
	for _, f := range ns.List("/") {
		tr.addf("list: %+v", f)
	}
	for _, f := range ns.List("/a/") {
		tr.addf("list /a/: %+v", f)
	}

	// Pin deltas and reconcile against the first file's blocks.
	rbs, err := ns.Resolve("/a/x", 0)
	tr.resolved("resolve /a/x post-retarget", rbs, err)
	var ids []dfs.BlockID
	for _, rb := range rbs {
		ids = append(ids, rb.block.ID)
	}
	ns.PinDeltas("c", ids[:1], nil)
	ns.PinDeltas("c", nil, ids[1:])
	ns.Reconcile("d", ids)
	rbs, err = ns.Resolve("/a/x", 0)
	tr.resolved("resolve /a/x post-pin", rbs, err)
	ns.DropPinned([]string{"c"})
	rbs, err = ns.Resolve("/a/x", 0)
	tr.resolved("resolve /a/x post-drop", rbs, err)

	// Exactly one block under-replicated: strip every holder of block
	// ids[0] except "d" (the reconcile above made "d" a holder of all of
	// /a/x's blocks). Reconcile replaces a node's whole holding set, so
	// rebuild each node's holdings across the live files minus ids[0].
	// Keeping it to a single block matters: a scan over several
	// under-replicated blocks draws the rng in map-iteration order —
	// harmless for the real repair loop, fatal for a line-for-line
	// transcript comparison.
	holdings := map[string][]dfs.BlockID{}
	for _, path := range []string{"/a/x", "/a/y", "/b/z"} {
		rbs, err := ns.Resolve(path, 0)
		if err != nil {
			continue
		}
		for _, rb := range rbs {
			if rb.block.ID == ids[0] {
				continue
			}
			for _, n := range rb.nodes {
				if n != "d" {
					holdings[n] = append(holdings[n], rb.block.ID)
				}
			}
		}
	}
	for _, addr := range []string{"a", "b", "c", "e", "f"} {
		ns.Reconcile(addr, holdings[addr])
	}
	live := map[string]bool{"a": true, "b": true, "c": true, "d": true, "e": true, "f": true}
	jobs := ns.RepairScan(live)
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].block.ID < jobs[j].block.ID })
	for _, j := range jobs {
		tr.addf("repair block=%d source=%s target=%s", j.block.ID, j.source, j.target)
	}
	// While healing, a second scan must not re-issue the same pulls.
	if again := ns.RepairScan(live); len(again) != 0 {
		tr.addf("repair rescan issued %d jobs while healing", len(again))
	}
	for _, j := range jobs {
		ns.RepairDone(j.block.ID, j.target, true)
	}
	rbs, err = ns.Resolve("/a/x", 0)
	tr.resolved("resolve /a/x post-repair", rbs, err)

	work, err := ns.Delete("/a/x")
	tr.err("delete /a/x", err)
	addrs := make([]string, 0, len(work))
	for addr := range work {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		blocks := append([]dfs.BlockID(nil), work[addr]...)
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		tr.addf("  delete work %s: %v", addr, blocks)
	}
	_, err = ns.Delete("/missing")
	tr.err("delete /missing", err)
	for _, f := range ns.List("/") {
		tr.addf("list post-delete: %+v", f)
	}
	return tr.lines
}

// TestShardedSingleShardMatchesUnsharded drives the historical
// single-lock namespace and the sharded namespace at shard count 1
// through an identical workload with the same seed and placer, and
// requires every result — placements, cached replays, repair choices,
// error strings — to match line for line. This is the structural half of
// the bit-identity guarantee; `make determinism` checks it end to end on
// the experiment figures.
func TestShardedSingleShardMatchesUnsharded(t *testing.T) {
	const seed = 42
	mem := driveNamespace(newMemNamespace(seed, equivPlacer()))
	sharded := driveNamespace(newShardedNamespace(1, seed, equivPlacer()))
	if len(mem) != len(sharded) {
		t.Fatalf("transcript length: mem=%d sharded=%d\nmem:\n%s\nsharded:\n%s",
			len(mem), len(sharded), strings.Join(mem, "\n"), strings.Join(sharded, "\n"))
	}
	for i := range mem {
		if mem[i] != sharded[i] {
			t.Errorf("step %d:\n  mem:     %s\n  sharded: %s", i, mem[i], sharded[i])
		}
	}
}

// TestShardedNamespaceWorkloadInvariants drives the sharded namespace at
// several shard counts through the same workload and checks the
// seed-independent invariants hold at every count: same op success/error
// pattern, same block sizes and offsets, same file listing. (Placements
// differ across counts — each shard draws its own rng stream.)
func TestShardedNamespaceWorkloadInvariants(t *testing.T) {
	strip := func(lines []string) []string {
		out := make([]string, 0, len(lines))
		for _, l := range lines {
			if strings.HasPrefix(l, "shards=") {
				continue
			}
			// Normalize away placement- and shard-dependent detail:
			// node sets, repair endpoints, delete work fan-out.
			if i := strings.Index(l, " nodes="); i >= 0 {
				l = l[:i]
			}
			if strings.HasPrefix(l, "repair block=") {
				l = l[:strings.Index(l, " source=")]
			}
			if strings.HasPrefix(l, "  delete work ") {
				continue
			}
			out = append(out, l)
		}
		return out
	}
	base := strip(driveNamespace(newShardedNamespace(1, 42, equivPlacer())))
	for _, shards := range []int{2, 4, 8} {
		got := strip(driveNamespace(newShardedNamespace(shards, 42, equivPlacer())))
		if len(got) != len(base) {
			t.Fatalf("shards=%d: transcript length %d, want %d", shards, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Errorf("shards=%d step %d:\n  shards=1: %s\n  shards=%d: %s", shards, i, base[i], shards, got[i])
			}
		}
	}
}

// newShardedHarness is newHarness with a partitioned metadata plane.
func newShardedHarness(t *testing.T, v *simclock.Virtual, datanodes, shards int) *harness {
	t.Helper()
	net := transport.NewInmemNetwork(v)
	nn := New(v, net, Config{Addr: "nn", Seed: 1, HeartbeatExpiry: 5 * time.Second, MetaShards: shards})
	if err := nn.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	h := &harness{v: v, nn: nn}
	for i := 0; i < datanodes; i++ {
		addr := string(rune('a' + i))
		if _, err := nn.handleRegister(dfs.RegisterReq{Addr: addr}); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	return h
}

// TestShardedConcurrentCreateDeleteOpen hammers a 4-shard namespace with
// workers creating, allocating, opening, and deleting files in per-worker
// directories (which hash across shards) while readers list the whole
// namespace. Run under -race this pins the per-shard lock split; the
// final listing checks no create or delete was lost across shards.
func TestShardedConcurrentCreateDeleteOpen(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newShardedHarness(t, v, 4, 4)
		defer h.nn.Close()

		const workers = 8
		const files = 40
		wg := simclock.NewWaitGroup(v)
		for w := 0; w < workers; w++ {
			w := w
			wg.Go(func() {
				for i := 0; i < files; i++ {
					path := fmt.Sprintf("/w%d/f%03d", w, i)
					if _, err := h.nn.handleCreate(dfs.CreateReq{Path: path, Replication: 2}); err != nil {
						t.Errorf("create %s: %v", path, err)
						return
					}
					if _, err := h.nn.handleAddBlock(dfs.AddBlockReq{Path: path, Size: 1 << 20}); err != nil {
						t.Errorf("addBlock %s: %v", path, err)
						return
					}
					if _, err := h.nn.handleGetInfo(dfs.GetInfoReq{Path: path}); err != nil {
						t.Errorf("getInfo %s: %v", path, err)
						return
					}
					if _, err := h.nn.handleGetLocations(dfs.GetLocationsReq{Path: path}); err != nil {
						t.Errorf("getLocations %s: %v", path, err)
						return
					}
					// Every third file is deleted again immediately — the
					// create/delete pair crosses the file shard and every
					// block shard its block landed on.
					if i%3 == 0 {
						if _, err := h.nn.handleDelete(dfs.DeleteReq{Path: path}); err != nil {
							t.Errorf("delete %s: %v", path, err)
							return
						}
					}
					if i%8 == 0 {
						v.Sleep(time.Millisecond)
					}
				}
			})
		}
		// Readers sweep the whole namespace while the writers churn.
		for r := 0; r < 4; r++ {
			wg.Go(func() {
				for i := 0; i < 100; i++ {
					if _, err := h.nn.handleList(dfs.ListReq{Prefix: "/"}); err != nil {
						t.Errorf("list: %v", err)
						return
					}
					v.Sleep(time.Millisecond)
				}
			})
		}
		wg.Wait()

		resp, err := h.nn.handleList(dfs.ListReq{Prefix: "/"})
		if err != nil {
			t.Fatal(err)
		}
		perWorker := files - (files+2)/3
		if len(resp.Files) != workers*perWorker {
			t.Errorf("final namespace holds %d files, want %d", len(resp.Files), workers*perWorker)
		}
	})
}

// TestShardedReadersRaceRegistryTraffic runs the registry/reader storm
// against the 4-shard metadata plane: the registry lock split and the
// storm's consistency invariants must survive sharding unchanged.
func TestShardedReadersRaceRegistryTraffic(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newShardedHarness(t, v, 4, 4)
		defer h.nn.Close()
		registryStorm(t, v, h)
	})
}
