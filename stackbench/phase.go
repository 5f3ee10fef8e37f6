package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
)

const (
	// setupReps set-ups are timed per phase and their median reported;
	// the last one carries the workload. Single set-ups on rpc took from
	// 0.8 to 2.4 ms around a 1.1 ms median.
	setupReps = 31
	// tick is the length of one goodput/CPU interval inside the window.
	tick = 250 * time.Millisecond
	// Stopped traffic is waited for until it is all answered, or nothing
	// has arrived for drainGrace, or drainLimit has passed; what is then
	// missing counts as failed.
	drainGrace = 3 * time.Second
	drainLimit = 30 * time.Second
	// leakGrace is how long teardown may take to return pooled buffers.
	leakGrace = 3 * time.Second
)

// warmup lets the stack reach steady state before the window opens: lazy
// channel set-up, pool fill and, on mixed, UDT's rate ramp.
func warmup(kind string) time.Duration {
	if kind == "mixed" {
		return 2 * time.Second
	}
	return time.Second
}

// latencyParts is how many equal parts the window's latencies are split
// into: enough that one part hit by host contention is outvoted, few
// enough that each part's p99 rests on ten samples or more (pings come
// 200 a second; chunks about a thousand).
func latencyParts(kind string) int {
	if kind == "mixed" {
		return 3
	}
	return 9
}

// sampleEvery is the traced run's span sampling: every chunk, ping and
// pong, but one rpc message in 32.
func sampleEvery(kind string) uint64 {
	if kind == "rpc" {
		return 32
	}
	return 1
}

// phase is one measured pass of a workload over a fresh stack.
type phase struct {
	kind     string
	seconds  float64
	traced   bool
	induce   induce
	traceOut string // span log path; empty writes none
}

// outcome is what one phase measured.
type outcome struct {
	metrics   map[string]float64
	attempted uint64
	failed    uint64
	problems  []string
}

// counters is everything read at the two edges of the window.
type counters struct {
	at        int64
	cpu       time.Duration
	delivered uint64
	pool      bufpool.Accounting
	mem       runtime.MemStats
	frames    uint64
	ser, des  [2]int64 // calls, ns
	cmp, dcm  [2]int64
	kept      int64
}

func readBusy(b *busy) [2]int64 { return [2]int64{b.calls.Load(), b.ns.Load()} }

func snapshot(r *run, p *pair) counters {
	c := counters{
		at:        r.clk.now(),
		cpu:       cpuTime(),
		delivered: p.drv.delivered.Load() + p.snk.delivered.Load(),
		pool:      bufpool.Account(),
		frames:    p.a.net.InboundTotals().Frames + p.b.net.InboundTotals().Frames,
	}
	runtime.ReadMemStats(&c.mem)
	if t := r.tr; t != nil {
		c.ser, c.des = readBusy(&t.serBusy), readBusy(&t.deserBusy)
		c.cmp, c.dcm = readBusy(&t.compBusy), readBusy(&t.decompBusy)
		c.kept = t.kept.Load()
	}
	return c
}

// good is the phase's verified payload counter: chunk bytes at the
// receiver, or echoed request bytes at the client.
func (ph phase) good(p *pair) uint64 {
	if ph.kind == "rpc" {
		return p.drv.rpcGood.Load()
	}
	return p.snk.good.Load()
}

// drained reports whether every message sent has been answered.
func (ph phase) drained(p *pair) bool {
	switch ph.kind {
	case "rpc":
		return p.drv.rpcOpen.Load() == 0
	case "mixed":
		if p.drv.pingsOpen.Load() != 0 {
			return false
		}
	}
	return p.snk.accounted.Load() == p.drv.chunksSent.Load()
}

// drain waits for every message sent to be answered, for as long as
// answers keep arriving.
func (ph phase) drain(p *pair) {
	arrived := func() uint64 { return p.drv.delivered.Load() + p.snk.delivered.Load() }
	last, quietSince, limit := arrived(), time.Now(), time.Now().Add(drainLimit)
	for !ph.drained(p) && time.Since(quietSince) < drainGrace && time.Now().Before(limit) {
		time.Sleep(10 * time.Millisecond)
		if n := arrived(); n != last {
			last, quietSince = n, time.Now()
		}
	}
}

// collectFrom asks an app for its results once traffic has stopped.
func collectFrom(c *kompics.Component, what string) (*appResult, error) {
	ch := make(chan *appResult, 1)
	c.SelfTrigger(collect{out: ch})
	select {
	case res := <-ch:
		return res, nil
	case <-time.After(5 * time.Second):
		return nil, fmt.Errorf("collecting %s results timed out", what)
	}
}

// run executes the phase: set-up (timed, repeated), warm-up, the measured
// window, drain, teardown and the leak check.
func (ph phase) run(in *inputs) (*outcome, error) {
	before := bufpool.Account()
	r := &run{kind: ph.kind, in: in, clk: clock{base: time.Now()}, induce: ph.induce, parts: latencyParts(ph.kind)}
	r.from.Store(math.MaxInt64)
	if ph.traced {
		r.tr = newTracer(r.clk, sampleEvery(ph.kind))
	}

	// Making the inputs left megabytes of garbage; collected during the
	// timed set-ups, it made the first twenty of them 2-4x slower.
	runtime.GC()
	var setups []float64
	var p *pair
	for i := 0; i < setupReps; i++ {
		var d time.Duration
		var err error
		if p, d, err = setUpOnFreePorts(r); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			p.close()
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var depth atomic.Int64
	var prb *probe
	if r.tr != nil {
		prb = &probe{r: r}
		pc := p.a.sys.Create(prb)
		p.a.sys.Start(pc)
		wg.Add(1)
		go func() {
			defer wg.Done()
			probeLoop(r, p, prb, &depth, stop)
		}()
	}
	// lags holds how late the workload's own generator ran: requests on
	// rpc, pings on mixed, chunks on bulk.
	var lags hist
	generate := func(interval time.Duration, lags *hist, emit func(seq uint64, at int64)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			schedule(r, interval, lags, stop, emit)
		}()
	}
	grant := func(uint64, int64) { p.drv.comp.SelfTrigger(chunkDue{}) }
	switch ph.kind {
	case "rpc":
		generate(rpcInterval, &lags, func(_ uint64, at int64) { p.drv.comp.SelfTrigger(rpcDue{at: at}) })
	case "mixed":
		generate(pingInterval, &lags, func(seq uint64, at int64) { p.drv.comp.SelfTrigger(pingDue{seq: seq, at: at}) })
		generate(mixedChunkInterval, nil, grant)
	default:
		generate(bulkChunkInterval, &lags, grant)
	}

	time.Sleep(warmup(ph.kind))
	c0 := snapshot(r, p)
	rates := []rate{{at: c0.at, cpu: c0.cpu, good: ph.good(p)}}
	end := c0.at + int64(ph.seconds*float64(time.Second))
	r.to.Store(end)
	r.from.Store(c0.at)
	ticker := time.NewTicker(tick)
	hostTotal0, hostSteal0 := hostTicks()
	var rss []float64
	for r.clk.now() < end {
		<-ticker.C
		rates = append(rates, rate{at: r.clk.now(), cpu: cpuTime(), good: ph.good(p)})
		rss = append(rss, rssMiB())
	}
	hostTotal1, hostSteal1 := hostTicks()
	ticker.Stop()
	c1 := snapshot(r, p)

	r.stop.Store(true)
	close(stop)
	wg.Wait()
	ph.drain(p)
	drv, errD := collectFrom(p.a.app, "driver")
	snk, errS := collectFrom(p.b.app, "sink")
	prbRes, errP := &appResult{}, error(nil)
	if prb != nil {
		prbRes, errP = collectFrom(prb.comp, "probe")
	}
	drops := p.a.net.DropStats().Sum().Total() + p.b.net.DropStats().Sum().Total()
	p.close()
	if err := errors.Join(errD, errS, errP); err != nil {
		return nil, err
	}
	leaked := leakCheck(before)

	out := &outcome{metrics: map[string]float64{}}
	switch ph.kind {
	case "rpc":
		out.attempted = p.drv.rpcSent.Load()
		out.failed = out.attempted - drv.okOps + drv.extra
	case "mixed":
		out.attempted = p.drv.chunksSent.Load() + p.drv.pingsSent.Load()
		out.failed = out.attempted - snk.okOps - drv.okOps + snk.extra + drv.extra
	default:
		out.attempted = p.drv.chunksSent.Load()
		out.failed = out.attempted - snk.okOps + snk.extra
	}
	if leaked != 0 {
		out.failed++
		out.problems = append(out.problems, fmt.Sprintf("%+d pooled buffers outstanding after teardown", leaked))
	}
	if out.failed > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d operations failed (%d NotifyResp errors, %d queue drops)",
			out.failed, out.attempted, drv.notified, drops))
	}

	m := out.metrics
	lat := &drv.lat
	if ph.kind == "bulk" {
		lat = &snk.lat
	}
	mbps, cpuPerMB := windowRates(rates)
	m["setup_s"] = median(setups)
	m["goodput_mbps"] = mbps
	m["cpu_ms_per_mb"] = cpuPerMB
	m["latency_p50_us"] = lat.quantile(0.50) / 1e3
	m["latency_p90_us"] = lat.quantile(0.90) / 1e3
	m["latency_p99_us"] = lat.quantile(0.99) / 1e3
	m["rss_peak_mb"] = peakRSSMiB()
	m["samples"] = float64(lat.total())
	m["host.steal_pct"] = float64(hostSteal1-hostSteal0) / float64(max(hostTotal1-hostTotal0, 1)) * 100
	m["rss_mb"] = median(rss)
	m["fail_ratio"] = float64(out.failed) / float64(max(out.attempted, 1))
	if r.tr == nil {
		return out, nil
	}

	// Per-layer metrics, from the traced run.
	secs := float64(c1.at-c0.at) / 1e9
	msgs := float64(max(c1.delivered-c0.delivered, 1))
	perMsgUs := func(a, b [2]int64) float64 { return float64(b[1]-a[1]) / 1e3 / msgs }
	calls := float64(c1.cmp[0] - c0.cmp[0])
	m["codec.serialize_us_per_msg"] = perMsgUs(c0.ser, c1.ser)
	m["codec.deserialize_us_per_msg"] = perMsgUs(c0.des, c1.des)
	m["codec.compress_us_per_msg"] = perMsgUs(c0.cmp, c1.cmp)
	m["codec.decompress_us_per_msg"] = perMsgUs(c0.dcm, c1.dcm)
	m["codec.compress_calls_per_msg"] = calls / msgs
	m["codec.compress_kept_ratio"] = float64(c1.kept-c0.kept) / max(calls, 1)
	codecNs := float64(c1.ser[1] - c0.ser[1] + c1.des[1] - c0.des[1] + c1.cmp[1] - c0.cmp[1] + c1.dcm[1] - c0.dcm[1])
	m["codec.cpu_share"] = codecNs / float64(max(c1.cpu-c0.cpu, 1))

	m["core.notify_us_p50"] = drv.notify.quantile(0.50) / 1e3
	m["core.notify_us_p99"] = drv.notify.quantile(0.99) / 1e3
	if ph.kind == "bulk" {
		m["core.oneway_us_p50"] = snk.lat.quantile(0.50) / 1e3
		m["core.oneway_us_p99"] = snk.lat.quantile(0.99) / 1e3
	} else {
		drv.oneway.merge(&snk.oneway)
		m["core.oneway_us_p50"] = drv.oneway.quantile(0.50) / 1e3
		m["core.oneway_us_p99"] = drv.oneway.quantile(0.99) / 1e3
	}
	m["core.queue_depth_max"] = float64(depth.Load())
	m["core.inbound_frames_per_msg"] = float64(c1.frames-c0.frames) / msgs
	m["core.drops"] = float64(drops)

	m["kompics.event_wait_us_p50"] = prbRes.probe.quantile(0.50) / 1e3
	m["kompics.event_wait_us_p99"] = prbRes.probe.quantile(0.99) / 1e3

	m["bufpool.gets_per_msg"] = float64(poolGets(c1.pool)-poolGets(c0.pool)) / msgs
	unpooled := len(c0.pool.Classes) - 1
	m["bufpool.unpooled_per_msg"] = float64(c1.pool.Classes[unpooled].Gets-c0.pool.Classes[unpooled].Gets) / msgs
	m["bufpool.outstanding_after"] = float64(leaked)

	m["runtime.allocs_per_msg"] = float64(c1.mem.Mallocs-c0.mem.Mallocs) / msgs
	m["runtime.gc_per_s"] = float64(c1.mem.NumGC-c0.mem.NumGC) / secs
	m["gen.lag_us_p99"] = lags.quantile(0.99) / 1e3

	self, roots := r.tr.selfTimes()
	for name := spOneway; name < spEventWait; name++ {
		m["trace.self_us_per_msg."+spanNames[name]] = self[name] / float64(max(roots, 1))
	}
	m["trace.spans"] = float64(len(r.tr.spans))
	if ph.traceOut != "" {
		if err := r.tr.write(ph.traceOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return out, nil
}

func poolGets(a bufpool.Accounting) uint64 {
	n := a.Buffers.Gets
	for _, c := range a.Classes {
		n += c.Gets
	}
	return n
}

// leakCheck waits for teardown to return every pooled buffer drawn since
// before, and returns how many are still out.
func leakCheck(before bufpool.Accounting) int64 {
	deadline := time.Now().Add(leakGrace)
	after := bufpool.Account()
	for after.Outstanding != before.Outstanding && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		after = bufpool.Account()
	}
	return after.Outstanding - before.Outstanding
}

// schedule is an open-loop generator: event k is due at start +
// k·interval whether or not earlier ones were answered, and emit runs for
// each once it is due, given the instant it ran. How late that was is
// recorded in lags, when given: an idle Go runtime wakes a timer up to a
// millisecond late (about 0.5 ms at the median on a 2-CPU host, which was
// most of a ping's round trip), and that is the generator's delay, not
// the stack's.
func schedule(r *run, interval time.Duration, lags *hist, stop <-chan struct{}, emit func(seq uint64, at int64)) {
	start := r.clk.now()
	for seq := uint64(1); ; seq++ {
		due := start + int64(seq-1)*int64(interval)
		if wait := time.Duration(due - r.clk.now()); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		now := r.clk.now()
		if lags != nil {
			r.record(lags, due, now)
		}
		emit(seq, now)
	}
}

// probeLoop feeds the kompics probe every millisecond and samples the
// deepest outgoing queue of either network.
func probeLoop(r *run, p *pair, prb *probe, depth *atomic.Int64, stop <-chan struct{}) {
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for seq := uint64(1); ; seq++ {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		prb.comp.SelfTrigger(probeEvent{seq: seq, at: r.clk.now()})
		d := max(p.a.net.QueueStats().MaxDepth, p.b.net.QueueStats().MaxDepth)
		if int64(d) > depth.Load() {
			depth.Store(int64(d))
		}
	}
}

func traceFile(dir, kind string, seed int64) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", kind, seed))
}
