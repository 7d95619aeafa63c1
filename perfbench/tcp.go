package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfs/client"
	"repro/internal/dfs/datanode"
	"repro/internal/dfs/namenode"
	"repro/internal/ignem"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

const (
	// tcpTimeScale is the simulated seconds per wall second of the live
	// cluster's clock: device service times are modeled, then slept for
	// a quarter of their length.
	tcpTimeScale = 4.0
	tcpNodes     = 8
	tcpClients   = 2 // closed loop: one goroutine and one client each
	tcpBlockSize = 1 << 20
	tcpBlocks    = 4
	tcpRepl      = 2
	// pinPollWall is the fixed wall-clock period at which a cycle polls
	// Slave.IsPinned after its Migrate call.
	pinPollWall = time.Millisecond
	// tcpSetups is how many clusters a pass starts (the last one runs
	// the load) so setup_s is a median.
	tcpSetups  = 3
	warmCycles = 2
)

// tcpCluster is a live namenode plus datanodes on loopback TCP.
type tcpCluster struct {
	clock  *simclock.Real
	net    transport.Network
	nn     *namenode.NameNode
	dns    []*datanode.DataNode
	slaves map[string]*ignem.Slave
	wal    *walTap
	nnAddr string
}

// walTap is the master's file-backed WAL with a tap on its appends: it
// counts the bytes the file grows by and notes every job a plan record
// is journaled for.
type walTap struct {
	*wal.FileBackend
	mu      sync.Mutex
	bytes   int64
	planned map[dfs.JobID]bool
}

// Append writes one framed record (8-byte length+CRC32C header, then
// the payload) and, when its payload is a plan record, notes the job.
func (w *walTap) Append(p []byte) error {
	if err := w.FileBackend.Append(p); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.bytes += int64(len(p))
	if job, ok := planRecordJob(p); ok {
		w.planned[job] = true
	}
	return nil
}

// takePlanned reports whether a plan record was journaled for job, and
// forgets the job.
func (w *walTap) takePlanned(job dfs.JobID) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	ok := w.planned[job]
	delete(w.planned, job)
	return ok
}

func (w *walTap) appendedBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

// planRecordJob decodes the job of an ignem journal plan record (kind
// tag 1, uvarint epoch, uvarint-length job ID), in the journal's
// on-disk format.
func planRecordJob(rec []byte) (dfs.JobID, bool) {
	const header, recPlan = 8, 1
	if len(rec) <= header || rec[header] != recPlan {
		return "", false
	}
	b := rec[header+1:]
	if _, n := binary.Uvarint(b); n > 0 {
		b = b[n:]
		if l, n := binary.Uvarint(b); n > 0 && uint64(len(b)-n) >= l {
			return dfs.JobID(b[n : n+int(l)]), true
		}
	}
	return "", false
}

func startTCPCluster(seed int64, walDir string) (*tcpCluster, error) {
	dfs.RegisterWire()
	fb, err := wal.OpenFile(walDir, "ignem-master.wal")
	if err != nil {
		return nil, err
	}
	c := &tcpCluster{
		clock:  simclock.NewScaledReal(tcpTimeScale),
		net:    transport.NewTCPNetwork(),
		slaves: map[string]*ignem.Slave{},
		wal:    &walTap{FileBackend: fb, planned: map[dfs.JobID]bool{}},
	}
	nnAddr, err := freeAddr(c.net)
	if err != nil {
		fb.Close()
		return nil, err
	}
	c.nnAddr = nnAddr
	c.nn = namenode.New(c.clock, c.net, namenode.Config{Addr: nnAddr, Seed: seed, WALBackend: c.wal})
	if err := c.nn.Start(); err != nil {
		return nil, fmt.Errorf("namenode: %w", err)
	}
	for i := 0; i < tcpNodes; i++ {
		addr, err := freeAddr(c.net)
		if err != nil {
			c.close()
			return nil, err
		}
		dn, err := datanode.New(c.clock, c.net, datanode.Config{
			Addr: addr, NameNodeAddr: nnAddr, Media: storage.HDDSpec(), Seed: seed + int64(i),
		})
		if err == nil {
			err = dn.Start()
		}
		if err != nil {
			c.close()
			return nil, fmt.Errorf("datanode %d: %w", i, err)
		}
		c.dns = append(c.dns, dn)
		c.slaves[addr] = dn.Slave()
	}
	for deadline := time.Now().Add(10 * time.Second); len(c.nn.LiveDataNodes()) < tcpNodes; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			c.close()
			return nil, fmt.Errorf("only %d of %d datanodes registered", len(c.nn.LiveDataNodes()), tcpNodes)
		}
	}
	return c, nil
}

// freeAddr reserves an ephemeral loopback port for a server to re-bind.
func freeAddr(net transport.Network) (string, error) {
	l, err := net.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr()
	l.Close()
	return addr, nil
}

func (c *tcpCluster) close() {
	for _, dn := range c.dns {
		dn.Close()
	}
	c.nn.Close()
}

// pinned reports whether a block is pinned on any of its replicas.
func (c *tcpCluster) pinned(lb dfs.LocatedBlock) bool {
	for _, addr := range lb.Nodes {
		if s := c.slaves[addr]; s != nil && s.IsPinned(lb.Block.ID) {
			return true
		}
	}
	return false
}

// tcpAcc collects one pass's samples; every field is guarded by mu.
type tcpAcc struct {
	mu                       sync.Mutex
	write, cold, hot, toHot  *series // wall ms
	job, task                *series // cluster-clock seconds
	memRead, diskRead        *series // cluster-clock seconds
	hotBlock, coldBlock      *series // wall ms
	pinBlock, migrateCall    *series // wall ms
	locations, resolve, rpcO *series
	cycles                   int
	userBytes                int64
	traced                   bool
}

func setupTCP(cfg runConfig, i int, pool []byte, observe func(client.BlockReadEvent), o *outcome) (*tcpCluster, []*client.Client, error) {
	dir, err := os.MkdirTemp(cfg.tmpDir, "wal-")
	if err != nil {
		return nil, nil, err
	}
	c, err := startTCPCluster(cfg.seed, dir)
	if err != nil {
		return nil, nil, err
	}
	var clients []*client.Client
	for k := 0; k < tcpClients; k++ {
		cl, err := client.New(c.clock, c.net, c.nnAddr, client.WithSeed(cfg.seed+int64(k)), client.WithReadObserver(observe))
		if err != nil {
			closeAll(c, clients)
			return nil, nil, err
		}
		clients = append(clients, cl)
	}
	for k, cl := range clients {
		for w := 0; w < warmCycles; w++ {
			cycle(c, cl, k, -1-w-warmCycles*i, pool, nil, o)
		}
	}
	return c, clients, nil
}

func closeAll(c *tcpCluster, clients []*client.Client) {
	for _, cl := range clients {
		cl.Close()
	}
	c.close()
}

// runJobCycleTCP drives tcpClients closed-loop clients through the
// write → cold read → migrate → hot read → evict → delete cycle.
func runJobCycleTCP(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	a := &tcpAcc{
		write: newSeries(millis), cold: newSeries(millis), hot: newSeries(millis), toHot: newSeries(millis),
		job: newSeries(seconds), task: newSeries(seconds),
		memRead: newSeries(seconds), diskRead: newSeries(seconds),
		hotBlock: newSeries(millis), coldBlock: newSeries(millis),
		pinBlock: newSeries(millis), migrateCall: newSeries(millis),
		locations: newSeries(millis), resolve: newSeries(micros), rpcO: newSeries(micros),
		traced: cfg.traced,
	}
	// Payloads are windows into one seeded buffer, so every cycle
	// writes fresh bytes without generating them inside the timed loop.
	pool := make([]byte, 4*tcpBlocks*tcpBlockSize)
	rand.New(rand.NewSource(cfg.seed)).Read(pool)

	var timing atomic.Bool // block reads are sampled only in the timed phase
	observe := func(ev client.BlockReadEvent) {
		if !timing.Load() {
			return
		}
		a.mu.Lock()
		defer a.mu.Unlock()
		if ev.FromMemory {
			a.memRead.add(ev.Duration)
		} else {
			a.diskRead.add(ev.Duration)
		}
		wall := time.Duration(float64(ev.Duration) / tcpTimeScale)
		if strings.HasPrefix(string(ev.Job), "hot-") {
			a.task.add(ev.Duration)
			a.hotBlock.add(wall)
		} else {
			a.coldBlock.add(wall)
		}
	}

	// Set-up is cluster start, client connections and warm-up cycles;
	// it runs tcpSetups times and the last cluster carries the load.
	var setups []float64
	var c *tcpCluster
	var clients []*client.Client
	for i := 0; i < tcpSetups; i++ {
		if c != nil {
			closeAll(c, clients)
		}
		t := time.Now()
		var err error
		c, clients, err = setupTCP(cfg, i, pool, observe, o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer closeAll(c, clients)

	nn0 := c.nn.Stats()
	ms0 := c.nn.Master().Stats()
	slave0 := sumSlaves(c)
	busy0, bytes0 := hddTotals(c)
	wal0 := c.wal.appendedBytes()

	stop := make(chan struct{})
	var samplerWG sync.WaitGroup
	var queuedMax, hddQN int
	var hddQSum float64
	if cfg.traced {
		samplerWG.Add(1)
		go func() {
			defer samplerWG.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				for _, dn := range c.dns {
					if q := dn.Slave().Stats().QueuedCmds; q > queuedMax {
						queuedMax = q
					}
					hddQSum += float64(dn.MediaDevice().Stats().QueueLen)
					hddQN++
				}
			}
		}()
	}

	timing.Store(true)
	wall0, clk0 := time.Now(), c.clock.Now()
	deadline := wall0.Add(cfg.dur)
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline); n++ {
				cycle(c, cl, i, n, pool, a, o)
			}
		}(i, cl)
	}
	wg.Wait()
	wall, clk := time.Since(wall0), c.clock.Now().Sub(clk0)
	timing.Store(false)
	close(stop)
	samplerWG.Wait()
	checkTCPDrained(c, o)

	e := o.e2e
	e.set("setup_s", median(setups), "s")
	rate := ratio(float64(a.cycles), wall.Seconds())
	e.set("sim_jobs_per_s", rate, "1/s")
	e.set("cycles_per_s", rate, "1/s")
	e.set("job_p50_s", a.job.q(0.50), "s")
	e.set("job_p95_s", a.job.q(0.95), "s")
	e.set("task_p50_s", a.task.q(0.50), "s")
	e.set("task_p99_s", a.task.q(0.99), "s")
	e.set("write_p50_ms", a.write.q(0.50), "ms")
	e.set("write_p99_ms", a.write.q(0.99), "ms")
	e.set("cold_read_p50_ms", a.cold.q(0.50), "ms")
	e.set("cold_read_p99_ms", a.cold.q(0.99), "ms")
	e.set("hot_read_p50_ms", a.hot.q(0.50), "ms")
	e.set("hot_read_p99_ms", a.hot.q(0.99), "ms")
	e.set("time_to_hot_p50_ms", a.toHot.q(0.50), "ms")
	e.set("time_to_hot_p99_ms", a.toHot.q(0.99), "ms")
	o.ops = float64(a.cycles)
	o.rate = rate
	if !cfg.traced {
		return o, nil
	}

	nn := c.nn.Stats()
	ms := c.nn.Master().Stats()
	slave := sumSlaves(c)
	slave.MigratedBlocks -= slave0.MigratedBlocks
	slave.MigratedBytes -= slave0.MigratedBytes
	slave.DiscardedMissed -= slave0.DiscardedMissed
	slave.MemoryHits -= slave0.MemoryHits
	slave.MemoryMisses -= slave0.MemoryMisses
	busy, hbytes := hddTotals(c)
	var csum int64
	for _, cl := range clients {
		csum += cl.ChecksumFailures()
	}
	jobs := float64(a.cycles)
	l := o.layer
	l.set("simclock.wall_per_sim_s", ratio(wall.Seconds(), clk.Seconds()), "s/s")
	l.set("scheduler.queue_p50_s", 0, "s") // no scheduler on the live cluster
	l.set("scheduler.node_local_frac", 0, "ratio")
	l.set("client.block_read_mem_p50_s", a.memRead.q(0.5), "s")
	l.set("client.block_read_disk_p50_s", a.diskRead.q(0.5), "s")
	l.set("client.block_read_hot_p50_ms", a.hotBlock.q(0.5), "ms")
	l.set("client.block_read_cold_p50_ms", a.coldBlock.q(0.5), "ms")
	l.set("client.block_read_cold_p99_ms", a.coldBlock.q(0.99), "ms")
	l.set("client.checksum_failures", float64(csum), "count")
	l.set("namenode.locations_p50_ms", a.locations.q(0.5), "ms")
	l.set("namenode.resolve_p50_us", a.resolve.q(0.5), "us")
	l.set("transport.rpc_overhead_p50_us", a.rpcO.q(0.5), "us")
	l.set("namenode.heartbeats_per_s", ratio(float64(nn.Heartbeats-nn0.Heartbeats), wall.Seconds()), "1/s")
	l.set("namenode.report_bytes_per_s", ratio(float64(nn.ReportBytes-nn0.ReportBytes), wall.Seconds()), "B/s")
	setIgnemLayer(l, slave, ignem.TierCounters{}, ms.SendErrors-ms0.SendErrors, queuedMax)
	l.set("ignem.migrate_call_p50_ms", a.migrateCall.q(0.5), "ms")
	l.set("ignem.pin_block_p50_ms", a.pinBlock.q(0.5), "ms")
	l.set("wal.records_per_job", ratio(float64(ms.WALRecords-ms0.WALRecords), jobs), "1/job")
	l.set("wal.bytes_per_job", ratio(float64(c.wal.appendedBytes()-wal0), jobs), "B/job")
	l.set("storage.hdd_util", ratio(float64(busy-busy0), float64(clk)*tcpNodes), "ratio")
	l.set("storage.hdd_busy_s_per_job", ratio((busy-busy0).Seconds(), jobs), "s/job")
	l.set("storage.hdd_bytes_per_user_byte", ratio(float64(hbytes-bytes0), float64(a.userBytes)), "B/B")
	l.set("storage.ram_bytes_per_user_byte", ratio(float64(slave.MigratedBytes), float64(a.userBytes)), "B/B")
	l.set("storage.hdd_queue_len_mean", ratio(hddQSum, float64(hddQN)), "count")
	l.set("storage.ssd_slow_reads", 0, "count") // no SSD rung on the live cluster
	return o, nil
}

// cycle runs one job cycle on a fresh file. Samples go to a (nil during
// warm-up); every operation counts as attempted in o, and every failed
// operation or output check as failed. The locations probe runs only
// when a is tracing.
func cycle(c *tcpCluster, cl *client.Client, id, n int, pool []byte, a *tcpAcc, o *outcome) {
	size := tcpBlocks * tcpBlockSize
	// A multiplicative hash of (client, cycle) picks the payload window;
	// the 1<<20 offset keeps warm-up cycles' negative n positive.
	off := int(uint64(id*7919+n+1<<20) * 2654435761 % uint64(len(pool)-size))
	data := pool[off : off+size]
	path := fmt.Sprintf("/jobcycle/c%d/%d", id, n)
	coldJob, hotJob := dfs.JobID(fmt.Sprintf("cold-%d-%d", id, n)), dfs.JobID(fmt.Sprintf("hot-%d-%d", id, n))
	check := func(op string, err error) bool {
		o.attempt()
		if err != nil {
			o.fail("%s %s: %v", op, path, err)
			return false
		}
		return true
	}
	t := time.Now()
	if !check("write", cl.WriteFile(path, data, tcpBlockSize, tcpRepl)) {
		return
	}
	write := time.Since(t)
	defer func() { check("delete", cl.Delete(path)) }()
	var loc, res time.Duration
	if a != nil && a.traced {
		t = time.Now()
		if !check("locations", ignoreValue(cl.Locations(path))) {
			return
		}
		loc = time.Since(t)
		t = time.Now()
		if !check("resolve", ignoreValue(c.nn.Resolve(path))) {
			return
		}
		res = time.Since(t)
	}
	blocks, err := c.nn.Resolve(path)
	if !check("resolve", err) {
		return
	}

	t = time.Now()
	got, err := cl.ReadFile(path, coldJob)
	if !check("cold read", err) {
		return
	}
	cold := time.Since(t)
	if !check("cold read bytes", sameBytes(got, data)) {
		return
	}

	t, clk0 := time.Now(), c.clock.Now()
	resp, err := cl.Migrate(hotJob, []string{path}, false)
	if !check("migrate", err) {
		return
	}
	migrateCall := time.Since(t)
	if resp.Blocks != len(blocks) {
		o.fail("migrate %s planned %d of %d blocks", path, resp.Blocks, len(blocks))
	}
	if !c.wal.takePlanned(hotJob) {
		o.fail("migrate %s journaled no plan record for %s", path, hotJob)
	}
	var pins []time.Duration
	hot := make([]bool, len(blocks))
	for left := len(blocks); left > 0; time.Sleep(pinPollWall) {
		for i, lb := range blocks {
			if !hot[i] && c.pinned(lb) {
				hot[i] = true
				left--
				pins = append(pins, time.Since(t))
			}
		}
		if left > 0 && time.Since(t) > 10*time.Second {
			o.fail("%s: %d blocks not pinned 10s after migrate", path, left)
			break
		}
	}
	toHot := time.Since(t)

	t = time.Now()
	got, err = cl.ReadFile(path, hotJob)
	if !check("hot read", err) {
		return
	}
	hotRead, job := time.Since(t), c.clock.Now().Sub(clk0)
	if !check("hot read bytes", sameBytes(got, data)) {
		return
	}
	if !check("evict", ignoreValue(cl.Evict(hotJob, []string{path}))) {
		return
	}
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cycles++
	a.userBytes += 2 * int64(size)
	a.write.add(write)
	a.cold.add(cold)
	a.hot.add(hotRead)
	a.toHot.add(toHot)
	a.job.add(job)
	a.migrateCall.add(migrateCall)
	for _, p := range pins {
		a.pinBlock.add(p)
	}
	if a.traced {
		a.locations.add(loc)
		a.resolve.add(res)
		a.rpcO.add(loc - res)
	}
}

func ignoreValue[T any](_ T, err error) error { return err }

func sameBytes(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("read %d bytes that differ from the %d written", len(got), len(want))
	}
	return nil
}

// checkTCPDrained waits for every datanode's pinned bytes to return to
// zero after the last evict.
func checkTCPDrained(c *tcpCluster, o *outcome) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var left int64
		for _, dn := range c.dns {
			left += dn.Slave().PinnedBytes()
		}
		if left == 0 {
			return
		}
		if time.Now().After(deadline) {
			o.fail("%d pinned bytes left on the datanodes 10s after the last evict", left)
			return
		}
		time.Sleep(pinPollWall)
	}
}

func sumSlaves(c *tcpCluster) ignem.SlaveStats {
	var agg ignem.SlaveStats
	for _, dn := range c.dns {
		addSlaveStats(&agg, dn.Slave().Stats())
	}
	return agg
}

func hddTotals(c *tcpCluster) (busy time.Duration, served int64) {
	for _, dn := range c.dns {
		st := dn.MediaDevice().Stats()
		busy += st.Busy
		served += st.BytesServed
	}
	return busy, served
}
