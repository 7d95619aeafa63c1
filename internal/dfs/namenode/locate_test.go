package namenode

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dfs"
	"repro/internal/simclock"
)

// markDead flips a registered datanode to dead, as the heartbeat-expiry
// sweep would, without waiting out the expiry.
func (h *harness) markDead(addr string) {
	h.nn.dnmu.Lock()
	h.nn.datanodes[addr].alive = false
	h.nn.liveCache = nil
	h.nn.dnmu.Unlock()
}

// TestOneBlockLocationsMatchWholeFile checks the one-block form of
// nn.getLocations against the whole-file reply at every namespace
// layout: for each block of each file, with and without a job, the
// entry GetLocationsReq{Block: id} returns must equal the whole-file
// reply's entry for id — offset, live replicas, RAM and SSD residency,
// assignment and checksum alike.
func TestOneBlockLocationsMatchWholeFile(t *testing.T) {
	for _, shards := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			run(t, func(v *simclock.Virtual) {
				h := newShardedHarness(t, v, 5, shards)
				defer h.nn.Close()
				f := h.mkFile(t, "/in/f", 6, 3)
				g := h.mkFile(t, "/in/g", 3, 2)

				// j1's migration assigns a replica to each of /in/f's
				// blocks; /in/g is never migrated, so its blocks carry no
				// assignment under j1.
				if _, err := h.nn.handleMigrate(dfs.MigrateReq{Job: "j1", Paths: []string{"/in/f"}, SubmitTime: v.Now()}); err != nil {
					t.Fatalf("migrate: %v", err)
				}
				// A dead replica holder: its replicas must drop out of
				// both forms.
				dead := f[3].Nodes[0]
				// One block pinned in RAM, one SSD-resident, each on a
				// live holder.
				liveHolder := func(lb dfs.LocatedBlock) string {
					for _, n := range lb.Nodes {
						if n != dead {
							return n
						}
					}
					t.Fatalf("block %d has no holder besides %s", lb.Block.ID, dead)
					return ""
				}
				if _, err := h.nn.handleHeartbeat(dfs.HeartbeatReq{Addr: liveHolder(f[1]), Pinned: []dfs.BlockID{f[1].Block.ID}}); err != nil {
					t.Fatal(err)
				}
				if _, err := h.nn.handleHeartbeat(dfs.HeartbeatReq{Addr: liveHolder(f[2]), SSDPinned: []dfs.BlockID{f[2].Block.ID}}); err != nil {
					t.Fatal(err)
				}
				h.markDead(dead)

				whole := map[string]dfs.GetLocationsResp{}
				for _, path := range []string{"/in/f", "/in/g"} {
					for _, job := range []dfs.JobID{"", "j1"} {
						resp, err := h.nn.handleGetLocations(dfs.GetLocationsReq{Path: path, Job: job})
						if err != nil {
							t.Fatalf("whole-file %s job=%q: %v", path, job, err)
						}
						whole[path+"|"+string(job)] = resp
						for _, lb := range resp.Blocks {
							one, err := h.nn.handleGetLocations(dfs.GetLocationsReq{Path: path, Job: job, Block: lb.Block.ID})
							if err != nil {
								t.Fatalf("one-block %s#%d job=%q: %v", path, lb.Block.ID, job, err)
							}
							if len(one.Blocks) != 1 || !reflect.DeepEqual(one.Blocks[0], lb) {
								t.Errorf("%s#%d job=%q: one-block %+v, whole-file entry %+v", path, lb.Block.ID, job, one.Blocks, lb)
							}
						}
					}
				}

				// The cases above must actually have been exercised.
				fj := whole["/in/f|j1"].Blocks
				if fj[0].Assigned == "" {
					t.Errorf("migrated block %d carries no assignment", fj[0].Block.ID)
				}
				if fj[1].Migrated == nil || fj[2].OnSSD == nil {
					t.Errorf("pinned %v / SSD %v residency missing", fj[1].Migrated, fj[2].OnSSD)
				}
				for _, n := range fj[3].Nodes {
					if n == dead {
						t.Errorf("dead holder %s still listed for block %d", dead, fj[3].Block.ID)
					}
				}
				if fj[5].Offset != 5<<20 {
					t.Errorf("block 5 offset = %d", fj[5].Offset)
				}
				for _, lb := range whole["/in/g|j1"].Blocks {
					if lb.Assigned != "" {
						t.Errorf("unmigrated block %d assigned %q", lb.Block.ID, lb.Assigned)
					}
				}
				for _, lb := range whole["/in/f|"].Blocks {
					if lb.Assigned != "" {
						t.Errorf("job-less query assigned block %d to %q", lb.Block.ID, lb.Assigned)
					}
				}

				// A block of another file, or an ID never allocated, is
				// an empty reply; an unknown path is an error.
				resp, err := h.nn.handleGetLocations(dfs.GetLocationsReq{Path: "/in/f", Block: g[0].Block.ID})
				if err != nil || len(resp.Blocks) != 0 {
					t.Errorf("foreign block: %+v, err %v", resp.Blocks, err)
				}
				resp, err = h.nn.handleGetLocations(dfs.GetLocationsReq{Path: "/in/f", Block: 1 << 40})
				if err != nil || len(resp.Blocks) != 0 {
					t.Errorf("unknown block: %+v, err %v", resp.Blocks, err)
				}
				if _, err := h.nn.handleGetLocations(dfs.GetLocationsReq{Path: "/missing", Block: f[0].Block.ID}); err == nil {
					t.Error("one-block lookup of a missing path succeeded")
				}
			})
		})
	}
}
