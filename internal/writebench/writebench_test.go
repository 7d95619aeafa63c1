package writebench

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

func BenchmarkWriteFileSerial(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchWriteFile(b, c, 1) })
}

func BenchmarkWriteFileParallel(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchWriteFile(b, c, client.DefaultWriteParallelism) })
}

func BenchmarkWriteSyntheticSerial(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchWriteSynthetic(b, c, 1) })
}

func BenchmarkWriteSyntheticParallel(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchWriteSynthetic(b, c, client.DefaultWriteParallelism) })
}

func BenchmarkLargeWritePipelinedFast(b *testing.B) {
	c, err := StartLargeTCP(true)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	BenchLargeWritePipelined(b, c)
}

func BenchmarkLargeWritePipelinedGob(b *testing.B) {
	c, err := StartLargeTCP(false)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	BenchLargeWritePipelined(b, c)
}

// TestLargeWriteFastPathSpeedup pins the codec acceptance bar on the
// write side: at the 4MiB block size, a pipelined replication-2 ingest
// through the binary fast path is meaningfully faster than through the
// gob baseline (WithTCPFastPath(false)) on the same HEAD, as the median
// over interleaved pairs (see pairbench.Speedup). Every replica hop
// (client→dn and dn→dn forward) pays the codec, so the ratio compounds
// across the pipeline. The bar, 1.25x, sits below the typical ~1.4x
// speedup but well above the ~1.0x of the fast path silently falling
// back to gob.
func TestLargeWriteFastPathSpeedup(t *testing.T) {
	// writer returns a timer of ops pipelined whole-file writes against
	// a fresh cluster with the fast path on or off, after one warm-up
	// write. Each written file is deleted off the clock, so replicas do
	// not pile up.
	writer := func(fast bool, ops int) func() time.Duration {
		c, err := StartLargeTCP(fast)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		cl, err := c.Client(client.WithWriteParallelism(client.DefaultWriteParallelism))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		write := func() time.Duration {
			path := c.nextPath()
			start := time.Now()
			if err := cl.WriteFile(path, c.in, c.blockSize, Replication); err != nil {
				t.Fatal(err)
			}
			took := time.Since(start)
			if err := cl.Delete(path); err != nil {
				t.Fatal(err)
			}
			return took
		}
		write()
		return func() time.Duration {
			var total time.Duration
			for i := 0; i < ops; i++ {
				total += write()
			}
			return total / time.Duration(ops)
		}
	}
	// The race detector taxes gob's instrumented reflection walk far more
	// densely than the fast path's memmove, so only the direction is
	// asserted there, on shorter sides (a write takes ~10x longer);
	// 1.25x is enforced on the normal build.
	ops, bar := 20, 1.25
	if raceEnabled {
		ops, bar = 5, 1.0
	}
	median, ratios := pairbench.Speedup(pairbench.Reps, writer(false, ops), writer(true, ops))
	if median < bar {
		t.Errorf("fast path is %.2fx faster than gob (median of %d interleaved pairs %.2f), want ≥%.2fx",
			median, len(ratios), ratios, bar)
	}
	t.Logf("fast path speedup over gob: median %.2fx over %d pairs, range %.2f–%.2fx",
		median, len(ratios), ratios[0], ratios[len(ratios)-1])
}

// TestParallelWriteSpeedupRealClock pins the acceptance bar without
// needing -bench: on the in-memory transport under the real clock,
// pipelined ingest with parallelism 4 is at least 2x faster than serial
// ingest of the same 8-block file. The modeled RAM/network charges
// dominate both sides, so the ratio is stable even on a loaded machine.
func TestParallelWriteSpeedupRealClock(t *testing.T) {
	c, err := Start(Inmem)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	elapsed := func(par int) time.Duration {
		cl, err := c.Client(client.WithWriteParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		// One warmup write so connection dials don't skew either side.
		warm := c.nextPath()
		if err := cl.WriteFile(warm, c.in, BlockSize, Replication); err != nil {
			t.Fatal(err)
		}
		if err := cl.Delete(warm); err != nil {
			t.Fatal(err)
		}
		const iters = 3
		var total time.Duration
		for i := 0; i < iters; i++ {
			path := c.nextPath()
			start := time.Now()
			if err := cl.WriteFile(path, c.in, BlockSize, Replication); err != nil {
				t.Fatal(err)
			}
			total += time.Since(start)
			// Deletion is untimed housekeeping so replicas don't pile up.
			if err := cl.Delete(path); err != nil {
				t.Fatal(err)
			}
		}
		return total / iters
	}

	serial := elapsed(1)
	parallel := elapsed(client.DefaultWriteParallelism)
	// Under -race the detector's instrumentation taxes the pipelined side
	// much harder than the serial side, so only the direction is asserted
	// there; the 2x bar is enforced on the normal build.
	bar := 2.0
	if raceEnabled {
		bar = 1.2
	}
	if float64(parallel)*bar > float64(serial) {
		t.Errorf("pipelined write %v is not ≥%.1fx faster than serial %v", parallel, bar, serial)
	}
	t.Logf("serial %v, pipelined(par=4) %v, speedup %.2fx", serial, parallel, float64(serial)/float64(parallel))
}
