package namenode

import (
	"math/rand"

	"repro/internal/dfs"
)

// Namespace is the metadata plane behind the NameNode's RPC handlers:
// the file table, the block map, and replica placement. The NameNode
// keeps everything that talks to the outside world — the datanode
// registry, RPC plumbing, the Ignem master — and delegates every
// metadata mutation and lookup here.
//
// Two implementations exist. memNamespace is the historical single-lock
// namespace; shardedNamespace partitions the same state across
// independently locked shards (files by directory hash, blocks by a
// consistent-hash ring) so metadata operations on unrelated paths never
// contend. Config.MetaShards selects between them.
type Namespace interface {
	// Create registers a new file with resolved (non-zero) block size and
	// replication.
	Create(path string, blockSize int64, replication int) error
	// Allocate appends len(sizes) blocks to an open file, choosing
	// replica targets for each, and returns the located blocks in order.
	// sums carries the client-computed CRC32C per block (nil, or a slice
	// parallel to sizes; zero entries mean unchecksummed) — the namespace
	// records them so every later Resolve can hand readers the write-time
	// checksum to verify against. reqID (when non-zero) keys a one-deep
	// idempotency cache so a retried allocation after a lost reply
	// returns the cached result instead of allocating twice; batch
	// distinguishes the single-block and batched call shapes, which must
	// not share cache entries.
	Allocate(path string, sizes []int64, sums []uint32, exclude []string, reqID uint64, batch bool) ([]dfs.LocatedBlock, error)
	// Retarget replaces an allocated block's target set with a fresh
	// placement avoiding the excluded nodes, preserving ID and offset.
	Retarget(path string, block dfs.BlockID, exclude []string) (dfs.LocatedBlock, error)
	// Complete seals a file.
	Complete(path string) error
	// Info returns a file's metadata.
	Info(path string) (dfs.FileInfo, error)
	// Delete removes a file and its blocks, returning the replica
	// deletion work per datanode address.
	Delete(path string) (map[string][]dfs.BlockID, error)
	// List returns the files under a path prefix, sorted by path.
	List(prefix string) []dfs.FileInfo
	// Resolve maps a file to its blocks with the raw (liveness-unaware)
	// replica and pin locations. The caller filters against the registry.
	// A non-zero only narrows the result to that one block (empty when
	// the file does not contain it), at the cost of one block rather
	// than the whole file.
	Resolve(path string, only dfs.BlockID) ([]resolvedBlock, error)
	// Reconcile makes the location map agree with a datanode's actual
	// replica inventory.
	Reconcile(addr string, held []dfs.BlockID)
	// ApplyReplicaDeltas applies an incremental block report: addr now
	// also holds added and no longer holds removed. Unknown block IDs
	// are ignored (the namespace may have deleted the file since the
	// datanode queued the delta).
	ApplyReplicaDeltas(addr string, added, removed []dfs.BlockID)
	// PinDeltas applies a heartbeat's pinned/unpinned block deltas.
	PinDeltas(addr string, pinned, unpinned []dfs.BlockID)
	// SSDDeltas applies a heartbeat's SSD-tier residency deltas, exactly
	// as PinDeltas does for the RAM tier.
	SSDDeltas(addr string, pinned, unpinned []dfs.BlockID)
	// FastTierHolders reports which datanodes currently hold the block
	// pinned in RAM and which on SSD, per the heartbeat-maintained side
	// tables. Master recovery reconciles the replayed journal against
	// this authoritative view: pin and unpin deltas the dead master
	// consumed without journaling are still reflected here.
	FastTierHolders(block dfs.BlockID) (ram, ssd []string)
	// DropPinned drops all pinned state (both fast tiers) for the given
	// (dead) datanodes.
	DropPinned(addrs []string)
	// RepairScan finds under-replicated blocks given the current
	// liveness map, chooses a pull source and target for each, and marks
	// them healing. The caller runs the pulls and reports back.
	RepairScan(live map[string]bool) []repairJob
	// RepairDone clears a block's healing mark; on ok the target is
	// recorded as a replica holder.
	RepairDone(block dfs.BlockID, target string, ok bool)
	// Shards reports the partition count (1 for the unsharded plane).
	Shards() int
}

// placeFunc chooses up to rep replica targets avoiding the excluded
// addresses, drawing any randomness from rng. The NameNode provides it
// (placement needs the live-datanode view and the rack map); the
// namespace owns which rng stream it draws from — per shard, so one
// stream never serializes unrelated allocations.
type placeFunc func(rng *rand.Rand, rep int, exclude []string) []string

// repairJob is one re-replication pull chosen by RepairScan.
type repairJob struct {
	block  dfs.Block
	source string
	target string
}

// resolvedBlock is one block of a resolved file with raw locations;
// liveness filtering happens in the NameNode against the registry.
type resolvedBlock struct {
	block    dfs.Block
	offset   int64
	checksum uint32 // write-time CRC32C; 0 = unchecksummed
	nodes    []string
	pinned   []string
	onSSD    []string
}

type fileEntry struct {
	info   dfs.FileInfo
	blocks []dfs.Block
	// lastAllocID/lastAllocBatch/lastAlloc cache the file's most recent
	// allocation keyed by the caller's request ID, making allocation
	// retries after a lost reply idempotent. One-deep is enough: a file
	// has one writer and the writer allocates serially, so a retry can
	// only ever be of the latest allocation.
	lastAllocID    uint64
	lastAllocBatch bool
	lastAlloc      []dfs.LocatedBlock
}

// blockMeta is one block-map entry. It is a single flat allocation in
// the 48-byte size class: replica locations are a sorted interned-node-
// ID set (see blockmap.go), not a per-block string map, and pin state
// lives in the sparse side pinMap, which together is what lets the
// NameNode track a million blocks in tens of megabytes.
type blockMeta struct {
	size    int64
	nodes   nodeSet // datanodes with a replica
	want    uint16  // the file's replication factor
	healing bool    // a re-replication pull is in flight
}
