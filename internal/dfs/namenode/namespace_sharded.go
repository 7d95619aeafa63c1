package namenode

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dfs"
	"repro/internal/shardmap"
)

// shardSeedStep separates the per-shard placement rng streams. Shard 0
// keeps the undisturbed configured seed, so a single-shard plane draws
// bit-identically to memNamespace; later shards offset by a large odd
// constant distinct from the Ignem coordinator's planner-seed step.
const shardSeedStep = 0xC2B2AE3D

// shardedNamespace partitions the metadata plane: files are routed to
// shards by a directory-prefix hash (a directory's entries colocate, so
// listings and per-directory job scans stay single-shard), blocks by the
// consistent-hash ring the Ignem coordinator and shard-routing clients
// share. Each partition has its own locks and its own seeded placement
// rng stream, so metadata operations on unrelated paths — and their rng
// draws — never serialize on a process-global lock.
//
// File shards and block shards are distinct arrays with distinct locks:
// an allocation holds its file shard's lock while inserting into a block
// shard, so sharing one lock array would self-deadlock at shard count 1.
// Lock order: fileShard.mu before blockShard.mu before rngMu (the
// registry read inside placeFunc nests under rngMu).
type shardedNamespace struct {
	place  placeFunc
	ring   *shardmap.Ring
	shards int
	// table interns datanode addresses for the compact block map; it is
	// shared by every shard (addresses are cluster-global).
	table *nodeTable

	fileShards  []*fileShard
	blockShards []*blockShard

	// nextBlock is the cluster-wide block ID counter. Atomic rather than
	// per-shard ranges: IDs stay dense and sequential, which the ring's
	// avalanche mix then spreads uniformly over the block shards.
	nextBlock atomic.Uint64
}

type fileShard struct {
	mu    sync.RWMutex
	files map[string]*fileEntry

	// Each file shard owns one placement rng stream; block shard i's
	// repair draws share stream i, so at shard count 1 every draw comes
	// from the single seed stream in the same order memNamespace uses.
	rngMu sync.Mutex
	rng   *rand.Rand
}

type blockShard struct {
	mu     sync.RWMutex
	blocks map[dfs.BlockID]*blockMeta
	pins   pinMap
	// ssd mirrors pins for the flash tier (see memNamespace.ssd).
	ssd pinMap
	// sums is the shard's sparse write-time checksum map (see
	// memNamespace.sums).
	sums map[dfs.BlockID]uint32
}

func newShardedNamespace(shards int, seed int64, place placeFunc) *shardedNamespace {
	if shards < 1 {
		shards = 1
	}
	ns := &shardedNamespace{
		place:  place,
		ring:   shardmap.NewRing(shards),
		shards: shards,
		table:  newNodeTable(),
	}
	for i := 0; i < shards; i++ {
		ns.fileShards = append(ns.fileShards, &fileShard{
			files: make(map[string]*fileEntry),
			rng:   rand.New(rand.NewSource(seed + int64(i)*shardSeedStep)),
		})
		ns.blockShards = append(ns.blockShards, &blockShard{
			blocks: make(map[dfs.BlockID]*blockMeta),
			pins:   make(pinMap),
			ssd:    make(pinMap),
			sums:   make(map[dfs.BlockID]uint32),
		})
	}
	return ns
}

func (ns *shardedNamespace) Shards() int { return ns.shards }

func (ns *shardedNamespace) fileShardOf(path string) *fileShard {
	return ns.fileShards[shardmap.FileShard(path, ns.shards)]
}

func (ns *shardedNamespace) blockShardOf(id dfs.BlockID) *blockShard {
	return ns.blockShards[ns.ring.BlockShard(uint64(id))]
}

func (ns *shardedNamespace) Create(path string, blockSize int64, replication int) error {
	fs := ns.fileShardOf(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; ok {
		return fmt.Errorf("namenode: %s already exists", path)
	}
	fs.files[path] = &fileEntry{info: dfs.FileInfo{
		Path: path, BlockSize: blockSize, Replication: replication,
	}}
	return nil
}

func (ns *shardedNamespace) Allocate(path string, sizes []int64, sums []uint32, exclude []string, reqID uint64, batch bool) ([]dfs.LocatedBlock, error) {
	fs := ns.fileShardOf(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, err := openFile(fs.files, path, sizes)
	if err != nil {
		return nil, err
	}
	if cached, ok := cachedAlloc(f, reqID, batch); ok {
		return cached, nil
	}
	out := make([]dfs.LocatedBlock, 0, len(sizes))
	for i, size := range sizes {
		lb, err := ns.allocateBlock(fs, f, size, sumAt(sums, i), exclude)
		if err != nil {
			return nil, err
		}
		out = append(out, lb)
	}
	rememberAlloc(f, reqID, batch, out)
	return out, nil
}

// allocateBlock appends one block to f with freshly chosen replica
// targets, drawing placement from the file shard's rng stream and
// registering the block meta with its owning block shard. Called with
// fs.mu held.
func (ns *shardedNamespace) allocateBlock(fs *fileShard, f *fileEntry, size int64, sum uint32, exclude []string) (dfs.LocatedBlock, error) {
	targets := fs.chooseTargets(ns.place, f.info.Replication, exclude)
	if len(targets) == 0 {
		return dfs.LocatedBlock{}, fmt.Errorf("namenode: no live datanodes")
	}
	b := dfs.Block{ID: dfs.BlockID(ns.nextBlock.Add(1)), Size: size}
	meta := newBlockMeta(ns.table, size, f.info.Replication, targets)
	bs := ns.blockShardOf(b.ID)
	bs.mu.Lock()
	bs.blocks[b.ID] = meta
	if sum != 0 {
		bs.sums[b.ID] = sum
	}
	bs.mu.Unlock()
	offset := f.info.Size
	f.blocks = append(f.blocks, b)
	f.info.Size += size
	return dfs.LocatedBlock{Block: b, Offset: offset, Checksum: sum, Nodes: targets}, nil
}

func (fs *fileShard) chooseTargets(place placeFunc, rep int, exclude []string) []string {
	fs.rngMu.Lock()
	defer fs.rngMu.Unlock()
	return place(fs.rng, rep, exclude)
}

func (ns *shardedNamespace) Retarget(path string, block dfs.BlockID, exclude []string) (dfs.LocatedBlock, error) {
	fs := ns.fileShardOf(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return dfs.LocatedBlock{}, fmt.Errorf("namenode: no such file %s", path)
	}
	blk, offset, found := findBlock(f, block)
	if !found {
		return dfs.LocatedBlock{}, fmt.Errorf("namenode: block %d not in %s", block, path)
	}
	bs := ns.blockShardOf(block)
	bs.mu.Lock()
	meta := bs.blocks[block]
	sum := bs.sums[block]
	bs.mu.Unlock()
	if meta == nil {
		return dfs.LocatedBlock{}, fmt.Errorf("namenode: block %d has no metadata", block)
	}
	targets := fs.chooseTargets(ns.place, int(meta.want), exclude)
	if len(targets) == 0 {
		return dfs.LocatedBlock{}, fmt.Errorf("namenode: no live datanodes")
	}
	ids := internAll(ns.table, targets)
	// Re-lock to swap the node set: meta contents are guarded by the
	// owning block shard's lock.
	bs.mu.Lock()
	meta.nodes.reset(ids)
	bs.mu.Unlock()
	return dfs.LocatedBlock{Block: blk, Offset: offset, Checksum: sum, Nodes: targets}, nil
}

func (ns *shardedNamespace) Complete(path string) error {
	fs := ns.fileShardOf(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("namenode: no such file %s", path)
	}
	f.info.Complete = true
	return nil
}

func (ns *shardedNamespace) Info(path string) (dfs.FileInfo, error) {
	fs := ns.fileShardOf(path)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return dfs.FileInfo{}, fmt.Errorf("namenode: no such file %s", path)
	}
	return f.info, nil
}

func (ns *shardedNamespace) Delete(path string) (map[string][]dfs.BlockID, error) {
	fs := ns.fileShardOf(path)
	fs.mu.Lock()
	f, ok := fs.files[path]
	if !ok {
		fs.mu.Unlock()
		return nil, fmt.Errorf("namenode: no such file %s", path)
	}
	delete(fs.files, path)
	blocks := append([]dfs.Block(nil), f.blocks...)
	fs.mu.Unlock()

	// Drop the block metas shard by shard, collecting the replica
	// deletion work. Shards lock one at a time, in index order.
	parts := make([][]dfs.BlockID, len(ns.blockShards))
	for _, b := range blocks {
		s := ns.ring.BlockShard(uint64(b.ID))
		parts[s] = append(parts[s], b.ID)
	}
	toDelete := make(map[string][]dfs.BlockID)
	addrs := ns.table.addrsView()
	for s, ids := range parts {
		if len(ids) == 0 {
			continue
		}
		bs := ns.blockShards[s]
		bs.mu.Lock()
		for _, id := range ids {
			if meta := bs.blocks[id]; meta != nil {
				for _, nid := range meta.nodes.view() {
					toDelete[addrs[nid]] = append(toDelete[addrs[nid]], id)
				}
			}
			delete(bs.blocks, id)
			delete(bs.pins, id)
			delete(bs.ssd, id)
			delete(bs.sums, id)
		}
		bs.mu.Unlock()
	}
	return toDelete, nil
}

func (ns *shardedNamespace) List(prefix string) []dfs.FileInfo {
	var out []dfs.FileInfo
	for _, fs := range ns.fileShards {
		fs.mu.RLock()
		for path, f := range fs.files {
			if len(path) >= len(prefix) && path[:len(prefix)] == prefix {
				out = append(out, f.info)
			}
		}
		fs.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

func (ns *shardedNamespace) Resolve(path string, only dfs.BlockID) ([]resolvedBlock, error) {
	fs := ns.fileShardOf(path)
	fs.mu.RLock()
	f, ok := fs.files[path]
	if !ok {
		fs.mu.RUnlock()
		return nil, fmt.Errorf("namenode: no such file %s", path)
	}
	if only != 0 {
		b, offset, found := findBlock(f, only)
		fs.mu.RUnlock()
		if !found {
			return nil, nil
		}
		out := []resolvedBlock{{block: b, offset: offset}}
		bs := ns.blockShardOf(b.ID)
		bs.mu.RLock()
		locateBlock(&out[0], ns.table.addrsView(), bs.blocks, bs.pins, bs.ssd, bs.sums)
		bs.mu.RUnlock()
		return out, nil
	}
	blocks := append([]dfs.Block(nil), f.blocks...)
	fs.mu.RUnlock()

	out := make([]resolvedBlock, len(blocks))
	var offset int64
	parts := make([][]int, len(ns.blockShards))
	for i, b := range blocks {
		out[i] = resolvedBlock{block: b, offset: offset}
		offset += b.Size
		s := ns.ring.BlockShard(uint64(b.ID))
		parts[s] = append(parts[s], i)
	}
	addrs := ns.table.addrsView()
	for s, idxs := range parts {
		if len(idxs) == 0 {
			continue
		}
		bs := ns.blockShards[s]
		bs.mu.RLock()
		for _, i := range idxs {
			locateBlock(&out[i], addrs, bs.blocks, bs.pins, bs.ssd, bs.sums)
		}
		bs.mu.RUnlock()
	}
	return out, nil
}

func (ns *shardedNamespace) Reconcile(addr string, held []dfs.BlockID) {
	id := ns.table.intern(addr)
	for _, bs := range ns.blockShards {
		bs.mu.Lock()
		reconcileBlocks(bs.blocks, bs.pins, bs.ssd, id, held)
		bs.mu.Unlock()
	}
}

func (ns *shardedNamespace) ApplyReplicaDeltas(addr string, added, removed []dfs.BlockID) {
	id := ns.table.intern(addr)
	type delta struct{ added, removed []dfs.BlockID }
	parts := make([]delta, len(ns.blockShards))
	for _, b := range added {
		s := ns.ring.BlockShard(uint64(b))
		parts[s].added = append(parts[s].added, b)
	}
	for _, b := range removed {
		s := ns.ring.BlockShard(uint64(b))
		parts[s].removed = append(parts[s].removed, b)
	}
	for s, d := range parts {
		if len(d.added) == 0 && len(d.removed) == 0 {
			continue
		}
		bs := ns.blockShards[s]
		bs.mu.Lock()
		applyReplicaDeltas(bs.blocks, bs.pins, bs.ssd, id, d.added, d.removed)
		bs.mu.Unlock()
	}
}

func (ns *shardedNamespace) PinDeltas(addr string, pinned, unpinned []dfs.BlockID) {
	ns.tierDeltas(addr, pinned, unpinned, func(bs *blockShard) pinMap { return bs.pins })
}

func (ns *shardedNamespace) SSDDeltas(addr string, pinned, unpinned []dfs.BlockID) {
	ns.tierDeltas(addr, pinned, unpinned, func(bs *blockShard) pinMap { return bs.ssd })
}

func (ns *shardedNamespace) FastTierHolders(block dfs.BlockID) (ram, ssd []string) {
	bs := ns.blockShards[ns.ring.BlockShard(uint64(block))]
	bs.mu.Lock()
	defer bs.mu.Unlock()
	addrs := ns.table.addrsView()
	return idAddrs(addrs, bs.pins.view(block)), idAddrs(addrs, bs.ssd.view(block))
}

// tierDeltas applies one tier's residency deltas, routing each block to
// its owning shard; sel picks which of the shard's tier maps to touch.
func (ns *shardedNamespace) tierDeltas(addr string, pinned, unpinned []dfs.BlockID, sel func(*blockShard) pinMap) {
	nid := ns.table.intern(addr)
	type delta struct{ pinned, unpinned []dfs.BlockID }
	parts := make([]delta, len(ns.blockShards))
	for _, id := range pinned {
		s := ns.ring.BlockShard(uint64(id))
		parts[s].pinned = append(parts[s].pinned, id)
	}
	for _, id := range unpinned {
		s := ns.ring.BlockShard(uint64(id))
		parts[s].unpinned = append(parts[s].unpinned, id)
	}
	for s, d := range parts {
		if len(d.pinned) == 0 && len(d.unpinned) == 0 {
			continue
		}
		bs := ns.blockShards[s]
		bs.mu.Lock()
		m := sel(bs)
		for _, id := range d.pinned {
			if _, ok := bs.blocks[id]; ok {
				m.add(id, nid)
			}
		}
		for _, id := range d.unpinned {
			m.remove(id, nid)
		}
		bs.mu.Unlock()
	}
}

func (ns *shardedNamespace) DropPinned(addrs []string) {
	ids := lookupAll(ns.table, addrs)
	if len(ids) == 0 {
		return
	}
	for _, bs := range ns.blockShards {
		bs.mu.Lock()
		bs.pins.dropNodes(ids)
		bs.ssd.dropNodes(ids)
		bs.mu.Unlock()
	}
}

func (ns *shardedNamespace) RepairScan(live map[string]bool) []repairJob {
	var jobs []repairJob
	rl := newRepairLiveness(ns.table, live)
	for i, bs := range ns.blockShards {
		// Block shard i's repair draws come from file shard i's stream,
		// so at shard count 1 repair and placement share the single seed
		// stream exactly as memNamespace interleaves them.
		fs := ns.fileShards[i]
		bs.mu.Lock()
		jobs = append(jobs, scanShardForRepair(bs.blocks, ns.table, rl, &fs.rngMu, fs.rng)...)
		bs.mu.Unlock()
	}
	return jobs
}

func (ns *shardedNamespace) RepairDone(block dfs.BlockID, target string, ok bool) {
	id := ns.table.intern(target)
	bs := ns.blockShardOf(block)
	bs.mu.Lock()
	defer bs.mu.Unlock()
	repairDone(bs.blocks, block, id, ok)
}
