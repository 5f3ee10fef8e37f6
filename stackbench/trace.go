package main

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"github.com/kompics/kompicsmessaging-go/internal/codec"
	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/filetransfer"
	"github.com/kompics/kompicsmessaging-go/internal/pingpong"
)

// Flows tag a message's sequence number with the stream it belongs to;
// the tagged value is both the NotifyReq ID and the trace ID.
const (
	flowSetup uint64 = iota + 1
	flowChunk
	flowReq
	flowRep
	flowPing
	flowPong
	flowProbe
)

const seqMask = 1<<56 - 1

func traceID(flow, seq uint64) uint64 { return flow<<56 | seq&seqMask }

// clock is the run's monotonic time base, shared by every component of
// both nodes so one-way times can be read across them.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// spanName identifies the layer boundary a span was recorded at.
type spanName uint8

const (
	spOneway      spanName = iota // sending app Trigger → receiving app handler (root)
	spNotify                      // NotifyReq → NotifyResp at the sending app
	spSerialize                   // registered serialiser, wrapped
	spCompress                    // compressor, wrapped
	spDecompress                  // compressor, wrapped
	spDeserialize                 // registered serialiser, wrapped
	spEventWait                   // kompics probe: SelfTrigger → handler (root)
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"app.oneway", "core.notify", "codec.serialize", "codec.compress",
	"codec.decompress", "codec.deserialize", "kompics.event_wait",
}

// span is one timed interval at a layer boundary. Spans of one message
// share its trace ID; parent is the index of the enclosing span, or -1.
type span struct {
	name       spanName
	parent     int32
	trace      uint64
	start, end int64
}

// busy accumulates a layer's call count and CPU time over every call,
// sampled or not.
type busy struct{ calls, ns atomic.Int64 }

func (b *busy) add(cpuNs int64) {
	b.calls.Add(1)
	b.ns.Add(cpuNs)
}

// cpuTimer reads the CPU time one call spends on its thread. Wall time
// would overstate a call's cost whenever the process has more runnable
// goroutines than CPUs. The goroutine is wired to its thread for the
// call, so both readings come from the same thread's clock.
type cpuTimer int64

func startCPU() cpuTimer {
	runtime.LockOSThread()
	return cpuTimer(threadCPU())
}

func (c cpuTimer) stop() int64 {
	d := threadCPU() - int64(c)
	runtime.UnlockOSThread()
	return d
}

// threadCPU is the calling thread's CPU time in nanoseconds.
func threadCPU() int64 {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// maxSpans bounds the span log's memory.
const maxSpans = 400_000

// tracer records spans in memory for the traced run. Every layer call is
// counted in the busy totals; spans are kept only for messages whose
// sequence number is a multiple of every, which bounds the log on the
// small-message workload.
type tracer struct {
	clk        clock
	every      uint64
	clientPort int // rpc requests come from this port, echoes go to it

	serBusy, deserBusy, compBusy, decompBusy busy
	kept                                     atomic.Int64 // compress attempts shipped compressed
	pendingDecomp                            atomic.Int64

	mu     sync.Mutex
	spans  []span
	roots  map[uint64]int32 // open app.oneway spans by trace
	notify map[uint64]int32 // open core.notify spans by trace
	// compLink links a compress call to the message just serialised into the
	// same scratch buffer: the first byte after the wire flag.
	compLink map[*byte]uint64
	// decompLink holds decompress spans until the deserialiser, reading the
	// same bytes, learns which message they belong to.
	decompLink map[uint32]span
}

func newTracer(clk clock, every uint64) *tracer {
	return &tracer{
		clk: clk, every: every,
		roots: map[uint64]int32{}, notify: map[uint64]int32{},
		compLink: map[*byte]uint64{}, decompLink: map[uint32]span{},
	}
}

func (t *tracer) sampled(trace uint64) bool { return (trace&seqMask)%t.every == 0 }

// addLocked appends s and returns its index, or -1 once the log is full.
func (t *tracer) addLocked(s span) int32 {
	if len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// begin opens a root (app.oneway) or notify span for trace at now.
func (t *tracer) begin(name spanName, trace uint64, now int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if name == spOneway {
		if i := t.addLocked(span{name: spOneway, parent: -1, trace: trace, start: now}); i >= 0 {
			t.roots[trace] = i
		}
		return
	}
	parent, ok := t.roots[trace]
	if !ok {
		parent = -1
	}
	if i := t.addLocked(span{name: name, parent: parent, trace: trace, start: now}); i >= 0 {
		t.notify[trace] = i
	}
}

// end closes the open span of the given kind for trace.
func (t *tracer) end(name spanName, trace uint64, now int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	open := t.roots
	if name == spNotify {
		open = t.notify
	}
	if i, ok := open[trace]; ok {
		t.spans[i].end = now
		delete(open, trace)
	}
}

// childLocked records a completed codec span under the message's notify
// span (sender side, when there is one) or its root.
func (t *tracer) childLocked(name spanName, trace uint64, start, end int64) {
	parent, ok := t.notify[trace]
	if !ok || (name != spSerialize && name != spCompress) {
		if parent, ok = t.roots[trace]; !ok {
			parent = -1
		}
	}
	t.addLocked(span{name: name, parent: parent, trace: trace, start: start, end: end})
}

// root records a completed root span (the kompics probe).
func (t *tracer) root(name spanName, trace uint64, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(span{name: name, parent: -1, trace: trace, start: start, end: end})
}

// traceOf names the message a serialiser saw.
func (t *tracer) traceOf(v interface{}) (uint64, bool) {
	switch m := v.(type) {
	case *filetransfer.ChunkMsg:
		if m.TransferID == bulkTransfer {
			return traceID(flowChunk, uint64(m.Index)), true
		}
	case *core.DataMsg:
		seq, ok := recordSeq(m.Payload)
		if !ok || seq == 0 {
			return 0, false
		}
		if m.Hdr.Src.Port() == t.clientPort {
			return traceID(flowReq, seq), true
		}
		return traceID(flowRep, seq), true
	case *pingpong.Ping:
		return traceID(flowPing, m.Seq), m.Seq != 0
	case *pingpong.Pong:
		return traceID(flowPong, m.Seq), true
	}
	return 0, false
}

// tracedSerializer times a registered serialiser; it is registered under
// the wrapped serialiser's own ID, so the wire format is unchanged.
type tracedSerializer struct {
	codec.Serializer
	t *tracer
}

// Serialize implements codec.Serializer.
func (s tracedSerializer) Serialize(w io.Writer, v interface{}) error {
	start, cpu := s.t.clk.now(), startCPU()
	err := s.Serializer.Serialize(w, v)
	s.t.serBusy.add(cpu.stop())
	end := s.t.clk.now()
	trace, ok := s.t.traceOf(v)
	if err != nil || !ok || !s.t.sampled(trace) {
		return err
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.childLocked(spSerialize, trace, start, end)
	// core writes [flag][serialiser id][body] into one scratch buffer and
	// compresses everything after the flag.
	if buf, isBuf := w.(*bytes.Buffer); isBuf && buf.Len() > 1 {
		s.t.compLink[&buf.Bytes()[1]] = trace
	}
	return nil
}

// Deserialize implements codec.Serializer.
func (s tracedSerializer) Deserialize(r io.Reader) (interface{}, error) {
	start, cpu := s.t.clk.now(), startCPU()
	v, err := s.Serializer.Deserialize(r)
	s.t.deserBusy.add(cpu.stop())
	end := s.t.clk.now()
	if err != nil {
		return v, err
	}
	trace, ok := s.t.traceOf(v)
	ok = ok && s.t.sampled(trace)
	var key uint32
	br, isReader := r.(*bytes.Reader)
	linkDecomp := isReader && s.t.pendingDecomp.Load() > 0
	if linkDecomp {
		key = readerCRC(br)
	}
	if !ok && !linkDecomp {
		return v, nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if linkDecomp {
		if d, found := s.t.decompLink[key]; found {
			delete(s.t.decompLink, key)
			s.t.pendingDecomp.Add(-1)
			if ok {
				s.t.childLocked(spDecompress, trace, d.start, d.end)
			}
		}
	}
	if ok {
		s.t.childLocked(spDeserialize, trace, start, end)
	}
	return v, nil
}

// readerCRC checksums everything r reads from, without moving it.
func readerCRC(r *bytes.Reader) uint32 {
	var buf [512]byte
	var crc uint32
	for off := int64(0); off < r.Size(); {
		n, _ := r.ReadAt(buf[:], off)
		if n == 0 {
			break
		}
		crc = crc32.Update(crc, castagnoli, buf[:n])
		off += int64(n)
	}
	return crc
}

// tracedCompressor times the default compressor. It implements
// codec.AppendCompressor, so core keeps its in-place fast path.
type tracedCompressor struct {
	inner *codec.Flate
	t     *tracer
}

var (
	_ codec.Compressor       = (*tracedCompressor)(nil)
	_ codec.AppendCompressor = (*tracedCompressor)(nil)
)

// Name implements codec.Compressor.
func (c *tracedCompressor) Name() string { return c.inner.Name() }

// Compress implements codec.Compressor.
func (c *tracedCompressor) Compress(src []byte) ([]byte, error) {
	return c.AppendCompress(nil, src)
}

// AppendCompress implements codec.AppendCompressor.
func (c *tracedCompressor) AppendCompress(dst, src []byte) ([]byte, error) {
	start, cpu := c.t.clk.now(), startCPU()
	out, err := c.inner.AppendCompress(dst, src)
	c.t.compBusy.add(cpu.stop())
	end := c.t.clk.now()
	if err == nil && len(out)-len(dst) < len(src) {
		c.t.kept.Add(1)
	}
	if len(src) > 0 {
		c.t.mu.Lock()
		if trace, ok := c.t.compLink[&src[0]]; ok {
			delete(c.t.compLink, &src[0])
			c.t.childLocked(spCompress, trace, start, end)
		}
		c.t.mu.Unlock()
	}
	return out, err
}

// Decompress implements codec.Compressor.
func (c *tracedCompressor) Decompress(src []byte) ([]byte, error) {
	start, cpu := c.t.clk.now(), startCPU()
	out, err := c.inner.Decompress(src)
	c.t.decompBusy.add(cpu.stop())
	end := c.t.clk.now()
	if err != nil {
		return out, err
	}
	key := crc32.Checksum(out, castagnoli)
	c.t.mu.Lock()
	if len(c.t.decompLink) >= 1<<12 {
		// Unmatched entries (a decode that failed after decompressing)
		// must not pile up.
		c.t.pendingDecomp.Add(-int64(len(c.t.decompLink)))
		clear(c.t.decompLink)
	}
	if _, dup := c.t.decompLink[key]; !dup {
		c.t.pendingDecomp.Add(1)
	}
	c.t.decompLink[key] = span{start: start, end: end}
	c.t.mu.Unlock()
	return out, nil
}

// selfTimes returns, per span name, the summed self time (duration minus
// the part covered by direct children) of completed spans, and the
// number of completed root app.oneway spans.
func (t *tracer) selfTimes() (self [numSpanNames]float64, roots int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 && s.end > 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	for i, s := range t.spans {
		if s.end <= 0 {
			continue
		}
		if s.name == spOneway {
			roots++
		}
		self[s.name] += float64(s.end-s.start-t.coveredLocked(s, kids[i])) / 1e3
	}
	return self, roots
}

// coveredLocked is the length of the union of the children's intervals
// clipped to s.
func (t *tracer) coveredLocked(s span, kids []int32) int64 {
	var covered, reach int64 = 0, s.start
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := t.spans[k]
		iv = append(iv, [2]int64{max(c.start, s.start), min(c.end, s.end)})
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	for _, x := range iv {
		lo := max(x[0], reach)
		if x[1] > lo {
			covered += x[1] - lo
			reach = x[1]
		}
	}
	return covered
}

// write stores the span log as JSON lines: name, start and end (µs on
// the run clock), parent index and trace ID.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_us":%.3f,"end_us":%.3f,"parent":%d,"trace":%d}`+"\n",
			i, spanNames[s.name], float64(s.start)/1e3, float64(s.end)/1e3, s.parent, s.trace)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
