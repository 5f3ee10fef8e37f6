// Command stackbench is the repository's end-to-end benchmark. It runs two
// in-process nodes, each a kompics.System with a core.Network in its
// default configuration, over real loopback sockets, and drives one of
// three workloads through them:
//
//   - bulk: a one-way stream of incompressible 65 KiB chunks over TCP at
//     16 MiB/s, at most 256 awaiting their NotifyResp (the per-byte path);
//   - rpc: an open loop that sends 16 echo requests at once every 10 ms,
//     each a 256 B compressible core.DataMsg over TCP (the per-message
//     path);
//   - mixed: the chunk stream over UDT, paced at 4 MiB/s, while an
//     open-loop generator sends a pingpong.Ping over TCP every 5 ms
//     (control latency with data flowing through the same layers).
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs
// the workload untraced and traced, then a ladder of single-layer runs,
// and prints the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . -workload bulk -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
)

// metric is one reported number and its unit.
type metric struct {
	name, unit string
}

// endToEnd are the metrics a user of the middleware sees, reported by
// every untraced run. Each applies to every workload:
//
//   - goodput is verified payload per second: chunk bytes counted at the
//     receiver on bulk and mixed, echoed request bytes on rpc (so it is
//     rpc_per_s × 256 B). Each workload offers a fixed load, so goodput
//     reads the offered rate unless the stack falls behind it; what the
//     load costs shows in cpu and latency;
//   - cpu is process CPU per MiB of that payload;
//   - latency is the median time of each chunk from its Trigger to the
//     receiving app on bulk, and of each round trip from when the
//     generator emitted its request (rpc) or ping (mixed). Tails are not
//     bounded here: on a shared host, stolen CPU and the odd 1.8 ms
//     compression a ping queues behind moved p90 by up to 2× and p99 by
//     up to 2.5× between runs of the same code. The summary line prints p90 and p99
//     for every run, and the traced run reports them as e2e.latency_*;
//   - rss is the median resident set over the window: the process's peak
//     moves with where a garbage collection happens to fall, the median
//     with what the stack holds.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"goodput_mbps", "MiB/s"},
	{"cpu_ms_per_mb", "ms/MiB"},
	{"latency_p50_us", "us"},
	{"rss_mb", "MiB"},
}

// perLayer are the traced run's metrics, by module.
var perLayer = []metric{
	{"codec.compress_us_per_msg", "us"},
	{"codec.compress_calls_per_msg", "count"},
	{"codec.compress_kept_ratio", "ratio"},
	{"codec.decompress_us_per_msg", "us"},
	{"codec.serialize_us_per_msg", "us"},
	{"codec.deserialize_us_per_msg", "us"},
	{"codec.cpu_share", "ratio"},
	{"core.notify_us_p50", "us"},
	{"core.notify_us_p99", "us"},
	{"core.oneway_us_p50", "us"},
	{"core.oneway_us_p99", "us"},
	{"core.queue_depth_max", "count"},
	{"core.inbound_frames_per_msg", "count"},
	{"core.drops", "count"},
	{"kompics.event_wait_us_p50", "us"},
	{"kompics.event_wait_us_p99", "us"},
	{"transport.tcp_rtt_us_p50", "us"},
	{"transport.cpu_us_per_msg", "us"},
	{"transport.tcp_mbps", "MiB/s"},
	{"transport.udt_mbps", "MiB/s"},
	{"udt.mbps", "MiB/s"},
	{"udt.cpu_ms_per_mb", "ms/MiB"},
	{"udt.retransmits_per_mb", "count/MiB"},
	{"udt.naks_per_mb", "count/MiB"},
	{"bufpool.gets_per_msg", "count"},
	{"bufpool.unpooled_per_msg", "count"},
	{"bufpool.outstanding_after", "count"},
	{"floor.tcp_rtt_us_p50", "us"},
	{"floor.tcp_mbps", "MiB/s"},
	{"floor.udp_mbps", "MiB/s"},
	{"runtime.allocs_per_msg", "count"},
	{"runtime.gc_per_s", "1/s"},
	{"gen.lag_us_p99", "us"},
	{"fail_ratio", "ratio"},
	{"e2e.latency_p90_us", "us"},
	{"e2e.latency_p99_us", "us"},
	{"trace.self_us_per_msg.app.oneway", "us"},
	{"trace.self_us_per_msg.core.notify", "us"},
	{"trace.self_us_per_msg.codec.serialize", "us"},
	{"trace.self_us_per_msg.codec.compress", "us"},
	{"trace.self_us_per_msg.codec.decompress", "us"},
	{"trace.self_us_per_msg.codec.deserialize", "us"},
	{"trace.spans", "count"},
	{"trace.overhead_pct.setup_s", "%"},
	{"trace.overhead_pct.goodput_mbps", "%"},
	{"trace.overhead_pct.cpu_ms_per_mb", "%"},
	{"trace.overhead_pct.latency_p50_us", "%"},
}

// Share of -seconds each part of a traced run gets.
const (
	tracedUntracedShare = 0.35
	tracedTracedShare   = 0.35
	tracedLadderShare   = 0.30
	ladderRungs         = 7
)

func main() {
	// The stack gets one CPU less than the host has: the kernel's loopback
	// work and any other tenant then run beside it instead of taking turns
	// with it. On a 2-CPU host, with both CPUs, one spinning process
	// elsewhere on the host cut rpc/s by 38% and bulk MiB/s by 34%; with
	// one, it moved them by 2% and 8%.
	runtime.GOMAXPROCS(max(1, runtime.NumCPU()-1))
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]valueInUnit `json:"metrics"`

	summary  string  // the untraced run's numbers under the workload's own names
	stealPct float64 // share of host CPU the hypervisor gave to other guests during the last window
}

type valueInUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	induce   induce
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stackbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "bulk, rpc or mixed")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's payloads are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and the layer ladder and prints per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", "", "directory the traced run writes its spans to (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if (o.workload != "bulk" && o.workload != "rpc" && o.workload != "mixed") || o.seconds <= 0 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintln(stderr, "stackbench: -workload must be bulk, rpc or mixed, -seconds positive and -trace 0 or 1")
		return 2
	}
	res, err := execute(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "stackbench: %v\n", err)
		return 1
	}
	if res.summary != "" {
		fmt.Fprintln(stdout, res.summary)
	}
	env, _ := json.Marshal(map[string]interface{}{"env": environment(o, res.stealPct)})
	fmt.Fprintln(stdout, string(env))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "stackbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// execute runs the workload and returns the result line.
func execute(o options, stderr io.Writer) (*result, error) {
	in := newInputs(o.seed)
	res := &result{Metrics: map[string]valueInUnit{}}
	report := func(list []metric, values map[string]float64) {
		for _, mt := range list {
			res.Metrics[mt.name] = valueInUnit{Value: values[mt.name], Unit: mt.unit}
		}
	}
	var problems []string
	add := func(out *outcome) {
		res.Attempted += out.attempted
		res.Failed += out.failed
		problems = append(problems, out.problems...)
	}
	if !o.trace {
		out, err := phase{kind: o.workload, seconds: o.seconds, induce: o.induce}.run(in)
		if err != nil {
			return nil, err
		}
		add(out)
		report(endToEnd, out.metrics)
		res.summary = issueNames(o.workload, out)
		res.stealPct = out.metrics["host.steal_pct"]
	} else {
		plain, err := phase{kind: o.workload, seconds: o.seconds * tracedUntracedShare, induce: o.induce}.run(in)
		if err != nil {
			return nil, err
		}
		add(plain)
		traced, err := phase{
			kind: o.workload, seconds: o.seconds * tracedTracedShare, traced: true, induce: o.induce,
			traceOut: traceFile(o.traceDir, o.workload, o.seed),
		}.run(in)
		if err != nil {
			return nil, err
		}
		add(traced)
		res.stealPct = traced.metrics["host.steal_pct"]
		step := time.Duration(o.seconds * tracedLadderShare / ladderRungs * float64(time.Second))
		before := bufpool.Account()
		lad, bad, err := ladder(in, max(step, 300*time.Millisecond))
		if err != nil {
			return nil, err
		}
		res.Failed += bad
		m := traced.metrics
		if leaked := leakCheck(before); leaked != 0 {
			res.Failed++
			m["bufpool.outstanding_after"] += float64(leaked)
			problems = append(problems, fmt.Sprintf("ladder: %+d pooled buffers outstanding after teardown", leaked))
		}
		for k, v := range lad {
			m[k] = v
		}
		m["e2e.latency_p90_us"] = plain.metrics["latency_p90_us"]
		m["e2e.latency_p99_us"] = plain.metrics["latency_p99_us"]
		for _, mt := range endToEnd {
			if base := plain.metrics[mt.name]; base != 0 && mt.name != "rss_mb" {
				m["trace.overhead_pct."+mt.name] = (m[mt.name] - base) / base * 100
			}
		}
		m["fail_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
		report(perLayer, m)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, p := range problems {
		fmt.Fprintf(stderr, "stackbench: %s\n", p)
	}
	return res, nil
}

// issueNames restates an untraced run's numbers under the names the
// workload's own metrics go by, with units, for a reader of the log.
func issueNames(kind string, out *outcome) string {
	m := out.metrics
	var parts []string
	addf := func(name, unit string, v float64) { parts = append(parts, fmt.Sprintf("%s=%.4g %s", name, v, unit)) }
	addf("setup_s", "s", m["setup_s"])
	switch kind {
	case "rpc":
		perSec := m["goodput_mbps"] * mib / recordSize
		addf("rpc_per_s", "1/s", perSec)
		addf("rpc_rtt_p50_us", "us", m["latency_p50_us"])
		addf("rpc_rtt_p90_us", "us", m["latency_p90_us"])
		addf("rpc_rtt_p99_us", "us", m["latency_p99_us"])
		addf("cpu_us_per_rpc", "us", m["cpu_ms_per_mb"]*1e3*recordSize/mib)
	case "mixed":
		addf("goodput_mbps", "MiB/s", m["goodput_mbps"])
		addf("cpu_ms_per_mb", "ms/MiB", m["cpu_ms_per_mb"])
		addf("ctrl_rtt_p50_us", "us", m["latency_p50_us"])
		addf("ctrl_rtt_p90_us", "us", m["latency_p90_us"])
		addf("ctrl_rtt_p99_us", "us", m["latency_p99_us"])
	default:
		addf("goodput_mbps", "MiB/s", m["goodput_mbps"])
		addf("cpu_ms_per_mb", "ms/MiB", m["cpu_ms_per_mb"])
		addf("chunk_latency_p50_us", "us", m["latency_p50_us"])
		addf("chunk_latency_p90_us", "us", m["latency_p90_us"])
		addf("chunk_latency_p99_us", "us", m["latency_p99_us"])
	}
	addf("rss_mb", "MiB", m["rss_mb"])
	addf("rss_peak_mb", "MiB", m["rss_peak_mb"])
	addf("fail_ratio", "ratio", m["fail_ratio"])
	addf("latency_samples", "count", m["samples"])
	return kind + ": " + strings.Join(parts, " ")
}

// environment records what a result was measured on.
func environment(o options, stealPct float64) map[string]interface{} {
	return map[string]interface{}{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"kernel":     kernel(),
		"commit":     commit(),
		"loopback":   true,
		// Steal is host CPU given to other guests while the window ran;
		// a high value explains a slow run.
		"host_steal_pct": stealPct,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
