package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/dfs/client"
	"repro/internal/ignem"
	"repro/internal/mapreduce"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/workloads"
)

// simSpec sizes one iteration of a virtual-clock workload: a fresh
// Ignem-mode cluster runs one generated SWIM trace to completion.
type simSpec struct {
	jobs         int
	totalBytes   int64
	interarrival time.Duration
	nodes        int
	// ladder selects the tight-RAM tier ladder: the "ladder" policy, a
	// variability-modeled SSD rung, RAM budget = 25% and SSD budget =
	// 100% of the trace's input bytes. Otherwise the paper policy runs
	// with unbounded pinned memory.
	ladder bool
}

// pinPollSim is the virtual-clock period at which the benchmark polls
// Slave.IsPinned to time each job's input becoming hot. It equals the
// datanodes' pin-report interval, so the poll is no coarser than what
// the namenode itself sees.
const pinPollSim = 250 * time.Millisecond

// The paper's SWIM run (§IV-B1): 200 jobs, 170 GB, 8 HDD nodes, the
// trace's gaps halved to a mean of 8 s.
func runSwimPaper(cfg runConfig) (*outcome, error) {
	spec := simSpec{jobs: 200, totalBytes: 170 << 30, interarrival: 8 * time.Second, nodes: 8}
	if cfg.smoke {
		spec.jobs, spec.totalBytes = 40, 16<<30
	}
	return runSim(spec, cfg)
}

// The tier ladder under a RAM budget that holds a quarter of the
// working set, one tierbench.Default() trace (48 jobs / 12 GB, about
// 360 map tasks) per iteration. A run pools about a hundred such
// traces: many short traces keep the per-trace job quantiles steadier
// across seeds than a few long ones, and the run still has tens of
// thousands of map tasks behind task_p99_s.
func runLadderTightRAM(cfg runConfig) (*outcome, error) {
	spec := simSpec{jobs: 48, totalBytes: 12 << 30, interarrival: 2 * time.Second, nodes: 8, ladder: true}
	if cfg.smoke {
		spec.jobs, spec.totalBytes, spec.nodes = 16, 3<<30, 4
	}
	return runSim(spec, cfg)
}

// simAcc pools samples over every iteration of a pass.
type simAcc struct {
	setup []float64 // wall seconds

	jobP50, jobP95      []float64 // simulated seconds, per iteration
	task, queue         *series   // simulated seconds
	write, cold         *series   // simulated ms, per file
	hot                 *series   // simulated ms, per-job means of block reads
	toHot, pinBlock     *series   // simulated ms, per job and per block
	memRead, diskRead   *series   // simulated seconds, per block read
	locations, resolve  *series   // wall
	rpcOverhead         *series   // wall
	migrateCall         *series   // wall
	nodeLocal           int
	wallPhase, simPhase time.Duration
	userBytes           int64

	queuedMax               int
	hddQueueSum             float64
	hddQueueN               int
	slave                   ignem.SlaveStats
	tiers                   ignem.TierCounters
	sendErrors              int64
	heartbeats, reportBytes int64
	hddBusy                 time.Duration
	hddBytes                int64
	hddElapsed              time.Duration // device-time denominator: nodes × job phase
	ssdSlowReads            int64
	jobs                    int
}

func newSimAcc() *simAcc {
	return &simAcc{
		task: newSeries(seconds), queue: newSeries(seconds),
		write: newSeries(millis), cold: newSeries(millis), hot: newSeries(millis),
		toHot: newSeries(millis), pinBlock: newSeries(millis),
		memRead: newSeries(seconds), diskRead: newSeries(seconds),
		locations: newSeries(millis), resolve: newSeries(micros),
		rpcOverhead: newSeries(micros), migrateCall: newSeries(millis),
	}
}

// runSim repeats fresh-cluster iterations, each on a trace derived from
// the seed and the iteration index, until cfg.dur of wall time has
// passed (at least one iteration), and reports pooled metrics.
func runSim(spec simSpec, cfg runConfig) (*outcome, error) {
	o := newOutcome()
	a := newSimAcc()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.dur; i++ {
		if err := simIteration(spec, cfg, cfg.seed*1_000_003+int64(i), a, o); err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
	}

	o.ops = float64(a.jobs)
	o.rate = ratio(float64(a.jobs), a.wallPhase.Seconds())
	e := o.e2e
	e.set("setup_s", median(a.setup), "s")
	// cycles_per_s is the TCP workload's rate; here its counterpart
	// sim_jobs_per_s stands in, as every workload reports every metric.
	// One trace's rate can be three times another's, so the rate is
	// every job of the run over every job phase's wall time.
	e.set("sim_jobs_per_s", o.rate, "1/s")
	e.set("cycles_per_s", o.rate, "1/s")
	// Job quantiles are taken per trace and summarised over the traces:
	// a trace that tips the cluster into a long HDD queue moves its own
	// p95 several-fold, so pooling every job lets a handful of such
	// traces swing the run's p95.
	e.set("job_p50_s", trimmedGeoMean(a.jobP50), "s")
	e.set("job_p95_s", trimmedGeoMean(a.jobP95), "s")
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
	if !cfg.traced {
		return o, nil
	}

	l := o.layer
	l.set("simclock.wall_per_sim_s", ratio(a.wallPhase.Seconds(), a.simPhase.Seconds()), "s/s")
	l.set("scheduler.queue_p50_s", a.queue.q(0.5), "s")
	l.set("scheduler.node_local_frac", ratio(float64(a.nodeLocal), float64(a.task.n())), "ratio")
	l.set("client.block_read_mem_p50_s", a.memRead.q(0.5), "s")
	l.set("client.block_read_disk_p50_s", a.diskRead.q(0.5), "s")
	l.set("client.block_read_hot_p50_ms", 1000*a.memRead.q(0.5), "ms")
	l.set("client.block_read_cold_p50_ms", 1000*a.diskRead.q(0.5), "ms")
	l.set("client.block_read_cold_p99_ms", 1000*a.diskRead.q(0.99), "ms")
	// Jobs read through the engine's own clients, whose counters are not
	// reachable from outside; the simulated blocks carry no checksum.
	l.set("client.checksum_failures", 0, "count")
	l.set("namenode.locations_p50_ms", a.locations.q(0.5), "ms")
	l.set("namenode.resolve_p50_us", a.resolve.q(0.5), "us")
	l.set("transport.rpc_overhead_p50_us", a.rpcOverhead.q(0.5), "us")
	l.set("namenode.heartbeats_per_s", ratio(float64(a.heartbeats), a.wallPhase.Seconds()), "1/s")
	l.set("namenode.report_bytes_per_s", ratio(float64(a.reportBytes), a.wallPhase.Seconds()), "B/s")
	setIgnemLayer(l, a.slave, a.tiers, a.sendErrors, a.queuedMax)
	l.set("ignem.migrate_call_p50_ms", a.migrateCall.q(0.5), "ms")
	l.set("ignem.pin_block_p50_ms", a.pinBlock.q(0.5), "ms")
	l.set("wal.records_per_job", 0, "1/job") // the simulated master runs unjournaled
	l.set("wal.bytes_per_job", 0, "B/job")
	l.set("storage.hdd_util", ratio(float64(a.hddBusy), float64(a.hddElapsed)), "ratio")
	l.set("storage.hdd_busy_s_per_job", ratio(a.hddBusy.Seconds(), float64(a.jobs)), "s/job")
	l.set("storage.hdd_bytes_per_user_byte", ratio(float64(a.hddBytes), float64(a.userBytes)), "B/B")
	l.set("storage.ram_bytes_per_user_byte", ratio(float64(a.slave.MigratedBytes), float64(a.userBytes)), "B/B")
	l.set("storage.hdd_queue_len_mean", ratio(a.hddQueueSum, float64(a.hddQueueN)), "count")
	l.set("storage.ssd_slow_reads", float64(a.ssdSlowReads), "count")
	return o, nil
}

// setIgnemLayer sets the per-layer metrics read from the slaves' and the
// master's Stats counters.
func setIgnemLayer(l metricSet, s ignem.SlaveStats, t ignem.TierCounters, sendErrors int64, queuedMax int) {
	reads := s.MemoryHits + s.SSDHits + s.MemoryMisses
	l.set("ignem.mem_read_frac", ratio(float64(s.MemoryHits), float64(reads)), "ratio")
	l.set("ignem.migrated_blocks", float64(s.MigratedBlocks), "count")
	l.set("ignem.discarded_missed", ratio(float64(s.DiscardedMissed), float64(s.MigratedBlocks+s.DiscardedMissed)), "ratio")
	l.set("ignem.useful_frac", ratio(float64(s.MemoryHits+s.SSDHits), float64(s.MigratedBlocks)), "ratio")
	l.set("ignem.queued_cmds_max", float64(queuedMax), "count")
	l.set("ignem.promotions_ssd", float64(t.PromotionsToSSD), "count")
	l.set("ignem.promotions_ram", float64(t.PromotionsToRAM), "count")
	l.set("ignem.climbs", float64(t.ClimbsSSDToRAM), "count")
	l.set("ignem.demotions", float64(t.Demotions), "count")
	l.set("ignem.budget_rejects_ram", float64(t.BudgetRejectsRAM), "count")
	l.set("ignem.send_errors", float64(sendErrors), "count")
}

func addSlaveStats(agg *ignem.SlaveStats, st ignem.SlaveStats) {
	agg.MigratedBlocks += st.MigratedBlocks
	agg.MigratedBytes += st.MigratedBytes
	agg.DiscardedMissed += st.DiscardedMissed
	agg.MemoryHits += st.MemoryHits
	agg.MemoryMisses += st.MemoryMisses
	agg.SSDHits += st.SSDHits
}

func addTiers(agg *ignem.TierCounters, t ignem.TierCounters) {
	agg.PromotionsToSSD += t.PromotionsToSSD
	agg.PromotionsToRAM += t.PromotionsToRAM
	agg.ClimbsSSDToRAM += t.ClimbsSSDToRAM
	agg.Demotions += t.Demotions
	agg.BudgetRejectsRAM += t.BudgetRejectsRAM
}

// pinTracker times each job's input blocks from the job's submission
// (its Migrate call) to the first poll that sees the block pinned in a
// fast tier on any of its replicas.
type pinTracker struct {
	mu     sync.Mutex
	slaves map[string]*ignem.Slave
	jobs   map[string]*jobPins
}

type jobPins struct {
	since   time.Time
	pending map[dfs.BlockID][]string // not yet seen pinned → replica addrs
	lastPin time.Duration            // submission → last block seen pinned
}

func (t *pinTracker) add(job string, since time.Time, blocks []dfs.LocatedBlock) {
	jp := &jobPins{since: since, pending: make(map[dfs.BlockID][]string, len(blocks))}
	for _, lb := range blocks {
		jp.pending[lb.Block.ID] = lb.Nodes
	}
	t.mu.Lock()
	t.jobs[job] = jp
	t.mu.Unlock()
}

// poll records, per block newly seen pinned, its time since submission.
func (t *pinTracker) poll(now time.Time, pinBlock *series) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, jp := range t.jobs {
		for id, addrs := range jp.pending {
			for _, addr := range addrs {
				if s := t.slaves[addr]; s != nil && s.IsPinned(id) {
					jp.lastPin = now.Sub(jp.since)
					pinBlock.add(jp.lastPin)
					delete(jp.pending, id)
					break
				}
			}
		}
	}
}

// done stops tracking a finished job and returns the time its last
// pinned block became hot (0 if none ever did).
func (t *pinTracker) done(job string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	jp := t.jobs[job]
	delete(t.jobs, job)
	return jp.lastPin
}

func simIteration(spec simSpec, cfg runConfig, seed int64, a *simAcc, o *outcome) error {
	t0 := time.Now()
	jobs := workloads.GenerateSwim(workloads.SwimConfig{
		Jobs:             spec.jobs,
		TotalInputBytes:  spec.totalBytes,
		MeanInterarrival: spec.interarrival,
		Seed:             seed,
	})
	ccfg := cluster.Config{Nodes: spec.nodes, Mode: cluster.ModeIgnem, Seed: seed}
	if spec.ladder {
		ccfg.MigrationPolicy = "ladder"
		ccfg.TierBudgets = ignem.TierBudgets{RAM: spec.totalBytes / 4, SSD: spec.totalBytes}
		ccfg.SSD = storage.SSDVarSpec(seed)
	}
	var inner error
	err := cluster.RunVirtual(2*time.Minute, func(v *simclock.Virtual) {
		inner = simRun(v, ccfg, jobs, cfg.traced, t0, a, o)
	})
	if err != nil {
		return err
	}
	return inner
}

func simRun(v *simclock.Virtual, ccfg cluster.Config, jobs []workloads.Job, traced bool, t0 time.Time, a *simAcc, o *outcome) error {
	c, err := cluster.Start(v, ccfg)
	if err != nil {
		return err
	}
	defer c.Close()
	cl, err := c.Client()
	if err != nil {
		return err
	}
	defer cl.Close()
	path := func(j workloads.Job) string { return "/perfbench/" + j.Name }
	for _, j := range jobs {
		start := v.Now()
		if err := cl.WriteSyntheticFile(path(j), j.InputBytes, 0, dfs.DefaultReplication); err != nil {
			return fmt.Errorf("load %s: %w", j.Name, err)
		}
		a.write.add(v.Now().Sub(start))
	}
	a.setup = append(a.setup, time.Since(t0).Seconds())

	nn0 := c.NameNode.Stats()
	var busy0 time.Duration
	var bytes0 int64
	for _, dn := range c.DataNodes {
		st := dn.MediaDevice().Stats()
		busy0 += st.Busy
		bytes0 += st.BytesServed
	}

	tracker := &pinTracker{slaves: map[string]*ignem.Slave{}, jobs: map[string]*jobPins{}}
	for _, dn := range c.DataNodes {
		tracker.slaves[dn.Addr()] = dn.Slave()
	}
	wall0, sim0 := time.Now(), v.Now()
	stop := simclock.NewChan[struct{}](v)
	stopped := simclock.NewChan[struct{}](v)
	v.Go(func() {
		defer stopped.Send(struct{}{})
		for {
			if _, _, timedOut := stop.RecvTimeout(pinPollSim); !timedOut {
				return
			}
			tracker.poll(v.Now(), a.pinBlock)
			if traced {
				for _, dn := range c.DataNodes {
					if q := dn.Slave().Stats().QueuedCmds; q > a.queuedMax {
						a.queuedMax = q
					}
					a.hddQueueSum += float64(dn.MediaDevice().Stats().QueueLen)
					a.hddQueueN++
				}
			}
		}
	})

	var mu sync.Mutex
	jobDur := newSeries(seconds)
	wg := simclock.NewWaitGroup(v)
	for _, j := range jobs {
		j := j
		wg.Go(func() {
			v.Sleep(j.Arrival)
			blocks, err := c.NameNode.Resolve(path(j))
			if err != nil {
				o.attempt()
				o.fail("resolve %s: %v", j.Name, err)
				return
			}
			tracker.add(j.Name, v.Now(), blocks)
			r, err := c.Engine.Run(mapreduce.Config{
				ID:            dfs.JobID(j.Name),
				InputPaths:    []string{path(j)},
				MapRateMBps:   800,
				ShuffleBytes:  j.ShuffleBytes,
				OutputBytes:   j.OutputBytes,
				UseIgnem:      true,
				ImplicitEvict: true,
			})
			lastPin := tracker.done(j.Name)
			o.attempt()
			if err != nil {
				o.fail("job %s: %v", j.Name, err)
				return
			}
			if len(r.MapResults) != len(blocks) || len(r.BlockReads) != len(blocks) {
				o.fail("job %s: %d blocks but %d map tasks and %d block reads", j.Name, len(blocks), len(r.MapResults), len(r.BlockReads))
				return
			}
			mu.Lock()
			defer mu.Unlock()
			a.jobs++
			jobDur.add(r.Duration)
			if lastPin > 0 {
				a.toHot.add(lastPin)
			}
			for _, tr := range r.MapResults {
				a.task.add(tr.RunTime)
				a.queue.add(tr.QueueTime)
				if tr.NodeLocal {
					a.nodeLocal++
				}
			}
			var hot []float64
			for _, ev := range r.BlockReads {
				a.userBytes += ev.Size
				if ev.FromMemory {
					hot = append(hot, millis(ev.Duration))
					a.memRead.add(ev.Duration)
				} else {
					a.diskRead.add(ev.Duration)
				}
			}
			if len(hot) > 0 {
				a.hot.xs = append(a.hot.xs, mean(hot))
			}
		})
	}
	wg.Wait()
	if jobDur.n() > 0 {
		a.jobP50 = append(a.jobP50, jobDur.q(0.50))
		a.jobP95 = append(a.jobP95, jobDur.q(0.95))
	}
	stop.Send(struct{}{})
	stopped.Recv()
	wall, sim := time.Since(wall0), v.Now().Sub(sim0)
	a.wallPhase += wall
	a.simPhase += sim

	if traced {
		probeSim(c, cl, jobs, path, a, o)
		nn := c.NameNode.Stats()
		a.heartbeats += nn.Heartbeats - nn0.Heartbeats
		a.reportBytes += nn.ReportBytes - nn0.ReportBytes
		addTiers(&a.tiers, nn.Tiers)
		a.sendErrors += c.NameNode.Master().Stats().SendErrors
		for _, dn := range c.DataNodes {
			addSlaveStats(&a.slave, dn.Slave().Stats())
			st := dn.MediaDevice().Stats()
			a.hddBusy += st.Busy
			a.hddBytes += st.BytesServed
			if d := dn.SSDDevice(); d != nil {
				a.ssdSlowReads += d.Stats().SlowReads
			}
		}
		a.hddBusy -= busy0
		a.hddBytes -= bytes0
		a.hddElapsed += sim * time.Duration(len(c.DataNodes))
	}
	checkDrained(v, c, o)
	coldReads(v, cl, jobs, path, a, o)
	return nil
}

// coldProbes is how many of a trace's input files are read cold after
// its jobs, spread evenly over the trace.
const coldProbes = 48

// coldReads times a whole-file ReadFile outside any job, one file after
// another, once every job has finished and every pin has drained, so
// each read comes from the HDDs: the simulated counterpart of the TCP
// workload's cold read, as the load phase's writes are of its writes.
func coldReads(v *simclock.Virtual, cl *client.Client, jobs []workloads.Job, path func(workloads.Job) string, a *simAcc, o *outcome) {
	n := min(coldProbes, len(jobs))
	for i := 0; i < n; i++ {
		p := path(jobs[i*len(jobs)/n])
		start := v.Now()
		o.attempt()
		if _, err := cl.ReadFile(p, ""); err != nil {
			o.fail("cold read %s: %v", p, err)
			continue
		}
		a.cold.add(v.Now().Sub(start))
	}
}

// checkDrained waits (on the virtual clock) for every datanode's pinned
// RAM and SSD bytes to return to zero once all jobs have evicted.
func checkDrained(v *simclock.Virtual, c *cluster.Cluster, o *outcome) {
	for waited := time.Duration(0); ; waited += time.Second {
		var left int64
		for i, b := range c.PinnedBytesPerNode() {
			left += b + c.SSDBytesPerNode()[i]
		}
		if left == 0 {
			return
		}
		if waited >= time.Minute {
			o.fail("%d pinned bytes left on the datanodes a minute after the last job", left)
			return
		}
		v.Sleep(time.Second)
	}
}

// probeSim times, after the job phase, the namenode lookup with and
// without the RPC layer and the Migrate call itself, on the iteration's
// own input files. Each probe job is evicted before the drain check.
func probeSim(c *cluster.Cluster, cl *client.Client, jobs []workloads.Job, path func(workloads.Job) string, a *simAcc, o *outcome) {
	const probes = 16
	for i := 0; i < probes && i < len(jobs); i++ {
		p := path(jobs[i*len(jobs)/probes])
		t := time.Now()
		o.attempt()
		if _, err := cl.Locations(p); err != nil {
			o.fail("locations %s: %v", p, err)
			continue
		}
		loc := time.Since(t)
		t = time.Now()
		if _, err := c.NameNode.Resolve(p); err != nil {
			o.fail("resolve %s: %v", p, err)
			continue
		}
		res := time.Since(t)
		a.locations.add(loc)
		a.resolve.add(res)
		a.rpcOverhead.add(loc - res)

		job := dfs.JobID(fmt.Sprintf("probe-%d", i))
		t = time.Now()
		if _, err := cl.Migrate(job, []string{p}, false); err != nil {
			o.fail("probe migrate %s: %v", p, err)
			continue
		}
		a.migrateCall.add(time.Since(t))
		if _, err := cl.Evict(job, []string{p}); err != nil {
			o.fail("probe evict %s: %v", p, err)
		}
	}
}
