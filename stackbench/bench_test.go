package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The correctness gate must fail a run when the stack damages or loses a
// message, and pass a clean one.
func TestGate(t *testing.T) {
	cases := []struct {
		name     string
		o        options
		wantFail bool
	}{
		{"clean bulk", options{workload: "bulk", seed: 1, seconds: 0.5}, false},
		{"clean rpc", options{workload: "rpc", seed: 1, seconds: 0.5}, false},
		{"clean mixed", options{workload: "mixed", seed: 1, seconds: 0.5}, false},
		{"corrupted chunk", options{workload: "bulk", seed: 1, seconds: 0.5, induce: induce{corruptChunk: 5}}, true},
		{"dropped reply", options{workload: "rpc", seed: 1, seconds: 0.5, induce: induce{dropReply: 3}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := execute(c.o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 {
				t.Fatal("no operations attempted")
			}
			if c.wantFail {
				if res.Correct || res.Failed == 0 {
					t.Fatalf("run passed the gate: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
				}
				return
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("clean run failed the gate: failed=%d of %d", res.Failed, res.Attempted)
			}
			for _, m := range endToEnd {
				if v := res.Metrics[m.name]; v.Value <= 0 || v.Unit != m.unit {
					t.Errorf("%s = %v %q", m.name, v.Value, v.Unit)
				}
			}
		})
	}
}

// The traced run reports every per-layer metric and returns every pooled
// buffer.
func TestTracedRun(t *testing.T) {
	res, err := execute(options{workload: "rpc", seed: 2, seconds: 3, trace: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run failed the gate: failed=%d of %d", res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("got %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, name := range []string{"codec.compress_us_per_msg", "codec.decompress_us_per_msg", "core.oneway_us_p50", "transport.tcp_mbps", "udt.mbps", "floor.tcp_rtt_us_p50", "trace.spans"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	if v := res.Metrics["bufpool.outstanding_after"].Value; v != 0 {
		t.Errorf("bufpool.outstanding_after = %v", v)
	}
}

// Bad flags exit nonzero without printing a result.
func TestCLIRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "bulk", "--trace", "2"},
		{"--workload", "bulk", "--seconds", "0"},
		{"--bogus"},
	} {
		var out bytes.Buffer
		if code := cli(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// The last line of a run is the result object with exactly its four keys.
func TestCLIResultLine(t *testing.T) {
	var out bytes.Buffer
	if code := cli([]string{"--workload", "bulk", "--seed", "3", "--seconds", "0.5", "--trace", "0"}, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("missing key %q", k)
		}
	}
	if len(got) != 4 {
		t.Errorf("got %d keys, want 4", len(got))
	}
}

// Histogram quantiles stay within a bucket of the exact nearest-rank
// quantile.
func TestHistQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	var v []float64
	for i := 0; i < 100000; i++ {
		x := math.Exp(rng.Float64() * 20)
		h.add(int64(x))
		v = append(v, float64(int64(x)))
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		want := quantile(v, q)
		got := h.quantile(q)
		if math.Abs(got-want) > want/(1<<histSub)+1 {
			t.Errorf("q%.2f = %v, want %v", q, got, want)
		}
	}
}

// Inputs are a function of the seed alone.
func TestInputsDeterministic(t *testing.T) {
	a, b, c := newInputs(7), newInputs(7), newInputs(8)
	if !bytes.Equal(a.chunks[3], b.chunks[3]) || !bytes.Equal(a.records[9], b.records[9]) {
		t.Fatal("same seed, different inputs")
	}
	if bytes.Equal(a.chunks[3], c.chunks[3]) {
		t.Fatal("different seeds, same chunk")
	}
	buf := make([]byte, recordSize)
	a.fillRecord(buf, 12345)
	if seq, ok := recordSeq(buf); !ok || seq != 12345 {
		t.Fatalf("recordSeq = %d, %v", seq, ok)
	}
}
