package readbench

import (
	"testing"
	"time"

	"repro/internal/dfs/client"
	"repro/internal/pairbench"
)

func withCluster(b *testing.B, fn func(b *testing.B, c *Cluster)) {
	for _, kind := range []Transport{Inmem, TCP} {
		b.Run(string(kind), func(b *testing.B) {
			c, err := Start(kind)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			fn(b, c)
		})
	}
}

func BenchmarkReadFileSerial(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchReadFile(b, c, 1) })
}

func BenchmarkReadFileParallel(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchReadFile(b, c, 4) })
}

func BenchmarkReaderStream(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchReaderStream(b, c, 0) })
}

func BenchmarkReaderStreamReadAhead(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchReaderStream(b, c, client.DefaultReadAhead) })
}

func BenchmarkRepeatedScanUncached(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchRepeatedScan(b, c, 0) })
}

func BenchmarkRepeatedScanCached(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchRepeatedScan(b, c, RepeatedScanCacheBytes) })
}

func BenchmarkLargeBlockReadFast(b *testing.B) {
	c, err := StartLargeTCP(true)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	BenchLargeBlockRead(b, c)
}

func BenchmarkLargeBlockReadGob(b *testing.B) {
	c, err := StartLargeTCP(false)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	BenchLargeBlockRead(b, c)
}

// measureLargeRead runs the large-block read body against a fresh
// cluster with the fast path on or off and returns the benchmark result.
func measureLargeRead(t *testing.T, fast bool) testing.BenchmarkResult {
	t.Helper()
	c, err := StartLargeTCP(fast)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return testing.Benchmark(func(b *testing.B) { BenchLargeBlockRead(b, c) })
}

// TestLargeBlockFastPathSpeedup pins the codec acceptance bar: at the
// 4MiB block size where the wire cost dominates, a single uncached
// ReadBlock through the binary fast path is at least 1.5x faster than
// through the gob baseline (WithTCPFastPath(false)) on the same HEAD —
// as the median over interleaved pairs (see pairbench.Speedup). Both sides
// run the identical RAM-served TCP cluster, so the ratio isolates the
// codec.
func TestLargeBlockFastPathSpeedup(t *testing.T) {
	// reader returns a timer of ops single-block reads against a fresh
	// cluster with the fast path on or off, after one warm-up read.
	reader := func(fast bool, ops int) func() time.Duration {
		c, err := StartLargeTCP(fast)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		cl, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		lbs, err := cl.Locations("/bench/input")
		if err != nil || len(lbs) == 0 {
			t.Fatalf("locations: %v, err %v", lbs, err)
		}
		lb := lbs[0]
		read := func() {
			resp, err := cl.ReadBlock(lb, "bench")
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(resp.Data)) != lb.Block.Size {
				t.Fatalf("read %d bytes, want %d", len(resp.Data), lb.Block.Size)
			}
			resp.Release()
		}
		read()
		return func() time.Duration {
			start := time.Now()
			for i := 0; i < ops; i++ {
				read()
			}
			return time.Since(start) / time.Duration(ops)
		}
	}
	const ops = 40
	median, ratios := pairbench.Speedup(pairbench.Reps, reader(false, ops), reader(true, ops))
	// The race detector taxes the two codecs unevenly (gob's reflection
	// walk is instrumented far more densely than one memmove), so only
	// the direction is asserted there; 1.5x is enforced on the normal
	// build.
	bar := 1.5
	if raceEnabled {
		bar = 1.0
	}
	if median < bar {
		t.Errorf("fast path is %.2fx faster than gob (median of %d interleaved pairs %.2f), want ≥%.1fx",
			median, len(ratios), ratios, bar)
	}
	t.Logf("fast path speedup over gob: median %.2fx over %d pairs, range %.2f–%.2fx",
		median, len(ratios), ratios[0], ratios[len(ratios)-1])
}

// TestLargeBlockReadAllocDrop pins the pooling acceptance bar: on the
// uncached ReadBlock TCP path the fast-path codec with pooled buffers
// allocates at most half the allocations — and at most half the bytes —
// per op of the gob baseline. Gob must allocate (and the GC must
// collect) a fresh 4MiB payload every op, while the fast path recycles
// one pooled buffer per op.
func TestLargeBlockReadAllocDrop(t *testing.T) {
	gob := measureLargeRead(t, false)
	fast := measureLargeRead(t, true)
	if fast.AllocsPerOp()*2 > gob.AllocsPerOp() {
		t.Errorf("fast path %d allocs/op is not ≤50%% of gob %d allocs/op",
			fast.AllocsPerOp(), gob.AllocsPerOp())
	}
	if fast.AllocedBytesPerOp()*2 > gob.AllocedBytesPerOp() {
		t.Errorf("fast path %d bytes/op is not ≤50%% of gob %d bytes/op",
			fast.AllocedBytesPerOp(), gob.AllocedBytesPerOp())
	}
	t.Logf("gob %d allocs/op %d B/op; fast %d allocs/op %d B/op",
		gob.AllocsPerOp(), gob.AllocedBytesPerOp(),
		fast.AllocsPerOp(), fast.AllocedBytesPerOp())
}

// cachedReadAllocCeiling is the committed allocs/op budget for one
// whole-file scan served entirely from the client block cache (the
// cached-read hot path). The measured figure is ~70 allocs/op on the
// in-memory transport (metadata RPCs plus the per-scan concat buffer;
// see BENCH_read.json's RepeatedScanCached records); the ceiling
// carries ~3x headroom so it only trips on a real regression — e.g.
// something reintroducing per-block allocations — not on runner noise.
const cachedReadAllocCeiling = 256

// TestCachedReadAllocCeiling fails if allocs/op on the cached-read hot
// path regresses above the committed ceiling.
func TestCachedReadAllocCeiling(t *testing.T) {
	c, err := Start(Inmem)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := testing.Benchmark(func(b *testing.B) { BenchRepeatedScan(b, c, RepeatedScanCacheBytes) })
	if r.AllocsPerOp() > cachedReadAllocCeiling {
		t.Errorf("cached scan %d allocs/op exceeds committed ceiling %d",
			r.AllocsPerOp(), cachedReadAllocCeiling)
	}
	t.Logf("cached scan: %d allocs/op, %d B/op (ceiling %d allocs/op)",
		r.AllocsPerOp(), r.AllocedBytesPerOp(), cachedReadAllocCeiling)
}

// TestRepeatedScanCacheSpeedup pins the block-cache acceptance bar: the
// second-and-later scans of a hot 8-block file through a cache-enabled
// client are at least 2x faster than re-fetching every scan, as the
// median over interleaved pairs (see pairbench.Speedup). Cache hits are pure
// in-process memory reads while the uncached side pays the modeled
// device plus wire charge.
func TestRepeatedScanCacheSpeedup(t *testing.T) {
	c, err := Start(Inmem)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// scanner returns a timer of iters whole-file scans through one
	// client, after a warm scan that dials every datanode and populates
	// the cache.
	scanner := func(cacheBytes int64, iters int) func() time.Duration {
		var opts []client.Option
		if cacheBytes > 0 {
			opts = append(opts, client.WithBlockCache(cacheBytes))
		}
		cl, err := c.Client(opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		if _, err := cl.ReadFile("/bench/input", "bench"); err != nil {
			t.Fatal(err)
		}
		return func() time.Duration {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if _, err := cl.ReadFile("/bench/input", "bench"); err != nil {
					t.Fatal(err)
				}
			}
			return time.Since(start) / time.Duration(iters)
		}
	}
	const iters = 10
	median, ratios := pairbench.Speedup(pairbench.Reps, scanner(0, iters), scanner(RepeatedScanCacheBytes, iters))
	// Under -race the cache-hit path (pure instrumented memory reads)
	// is taxed far harder than the uncached side's modeled device
	// charge, so only the direction is asserted there; the 2x bar is
	// enforced on the normal build.
	bar := 2.0
	if raceEnabled {
		bar = 1.2
	}
	if median < bar {
		t.Errorf("cached repeated scan is %.2fx faster than uncached (median of %d interleaved pairs %.2f), want ≥%.1fx",
			median, len(ratios), ratios, bar)
	}
	t.Logf("cache speedup: median %.2fx over %d pairs, range %.2f–%.2fx",
		median, len(ratios), ratios[0], ratios[len(ratios)-1])
}

// TestParallelSpeedupRealClock pins the acceptance bar without needing
// -bench: on the in-memory transport under the real clock, a striped
// read with parallelism 4 is at least 2x faster than the serial read of
// the same 8-block file. The modeled HDD seek dominates both sides, so
// the ratio is stable even on a loaded machine.
func TestParallelSpeedupRealClock(t *testing.T) {
	c, err := Start(Inmem)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	elapsed := func(par int) time.Duration {
		cl, err := c.Client(client.WithReadParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		// One warmup read so connection dials don't skew either side.
		if _, err := cl.ReadFile("/bench/input", "bench"); err != nil {
			t.Fatal(err)
		}
		const iters = 3
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := cl.ReadFile("/bench/input", "bench"); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start) / iters
	}

	serial := elapsed(1)
	striped := elapsed(4)
	// Under -race the detector's instrumentation taxes the four-worker
	// side much harder than the serial side, so only the direction is
	// asserted there; the 2x bar is enforced on the normal build.
	bar := 2.0
	if raceEnabled {
		bar = 1.2
	}
	if float64(striped)*bar > float64(serial) {
		t.Errorf("striped read %v is not ≥%.1fx faster than serial %v", striped, bar, serial)
	}
	t.Logf("serial %v, striped(par=4) %v, speedup %.2fx", serial, striped, float64(serial)/float64(striped))
}
