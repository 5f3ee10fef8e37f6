package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/codec"
	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/filetransfer"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
	"github.com/kompics/kompicsmessaging-go/internal/pingpong"
)

// Workload geometry. Every workload is an open loop: its messages fall
// due on a fixed schedule, whether or not earlier ones were answered, at
// a rate that keeps the stack's CPU at most about half busy. Run
// flat out or as a closed loop, the stack saturated the CPU and its
// numbers followed whatever else ran on the host: a closed loop of 16 rpc
// requests settled into one of several self-sustaining batching patterns,
// so rpc/s read ~8.2k or ~10.5k from run to run of the same code
// (IQR/median 0.21 over ten 30 s runs, RTT 0.27), and a flat-out bulk
// stream's MiB/s followed the host's speed, which drifts by ±15% over
// minutes on a shared 2-CPU host. At a fixed rate the same drift moved
// CPU per MiB and latency about half as much, and bulk's latency is one
// chunk's trip instead of the time 256 queued chunks take to drain.
const (
	chunkWindow = 256 // cap on chunks awaiting their NotifyResp: the paper's asynchronous sender
	// bulkChunkInterval paces bulk's TCP stream at 16 MiB/s, 40-55% of
	// the stack's one CPU as the host's speed drifts.
	bulkChunkInterval = time.Second * chunkSize / (16 << 20)
	// mixedChunkInterval paces mixed's UDT stream at 4 MiB/s, a fifth of
	// the CPU. A ping's trip hands over between goroutines on the one CPU
	// about ten times, and waits at each hand-over the CPU is busy with
	// chunks. At 8 MiB/s (a third of the CPU) the median ping read 0.22 ms
	// on a quiet host and 0.5-0.8 ms when the host ran ~15% slower; at 4
	// MiB/s it read 0.19-0.25 ms either way, with a spinning process beside
	// it too. The median then measures the shared layers' path, and the
	// tail (p90, p99) the wait behind chunks.
	mixedChunkInterval = time.Second * chunkSize / (4 << 20)
	// rpcBurst requests go out at once every rpcInterval (1600 rpc/s, a
	// quarter of the CPU), so each burst starts from an idle stack. At one
	// burst every 5 ms the CPU was half busy when the host ran slow, bursts
	// queued behind each other and the RTT p90 reached 5-14 ms in a third
	// of the runs.
	rpcBurst     = 16
	rpcInterval  = 10 * time.Millisecond
	pingInterval = 5 * time.Millisecond

	setupTransfer uint32 = 1 // ChunkMsg.TransferID of the set-up probe
	bulkTransfer  uint32 = 2 // ChunkMsg.TransferID of the timed stream
)

// induce injects one fault for the benchmark's own test: the correctness
// gate must fail the run. Zero values inject nothing.
type induce struct {
	corruptChunk uint64 // chunk index whose body is damaged on the wire
	dropReply    uint64 // rpc request whose echo is never sent
}

// run is the state one workload phase shares across both nodes.
type run struct {
	kind   string
	in     *inputs
	clk    clock
	tr     *tracer // nil when untraced
	induce induce
	stop   atomic.Bool
	stamps stampBook
	// from and to bound the measured window on the run clock; timings of
	// operations due outside it are not recorded.
	from, to atomic.Int64
	parts    int // latency parts the window is split into
}

func (r *run) inWindow(at int64) bool { return at >= r.from.Load() && at < r.to.Load() }

// record adds a timing to h when the operation was due inside the window.
func (r *run) record(h *hist, at, now int64) {
	if r.inWindow(at) {
		h.add(now - at)
	}
}

// recordPart adds a timing to the part of l the operation was due in.
func (r *run) recordPart(l *latency, at, now int64) {
	from, to := r.from.Load(), r.to.Load()
	if at < from || at >= to {
		return
	}
	l.parts[(at-from)*int64(len(l.parts))/(to-from)].add(now - at)
}

// stampBook holds each in-flight message's send time, so the receiving
// app can time the one-way trip on the shared clock.
type stampBook struct {
	mu sync.Mutex
	at map[uint64]int64
}

func (b *stampBook) put(id uint64, t int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.at == nil {
		b.at = map[uint64]int64{}
	}
	b.at[id] = t
}

func (b *stampBook) take(id uint64) (int64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.at[id]
	delete(b.at, id)
	return t, ok
}

type registration struct {
	s     codec.Serializer
	proto interface{}
}

// registrations lists the serialisers the workloads need, as
// core.NewRegistry, filetransfer.Register and pingpong.Register install
// them.
func registrations() []registration {
	var reg codec.Registry
	if err := pingpong.Register(&reg); err != nil {
		panic(err)
	}
	ping, _ := reg.ByID(pingpong.PingSerializerID)
	pong, _ := reg.ByID(pingpong.PongSerializerID)
	return []registration{
		{core.DataMsgSerializer{}, (*core.DataMsg)(nil)},
		{filetransfer.ChunkSerializer{}, (*filetransfer.ChunkMsg)(nil)},
		{ping, (*pingpong.Ping)(nil)},
		{pong, (*pingpong.Pong)(nil)},
	}
}

// registry builds a node's codec registry: the plain serialisers, each
// wrapped for timing when the run is traced, and the chunk serialiser
// wrapped to damage one chunk when the run induces corruption.
func registry(r *run) *codec.Registry {
	reg := &codec.Registry{}
	for _, e := range registrations() {
		s := e.s
		if _, isChunk := e.proto.(*filetransfer.ChunkMsg); isChunk && r.induce.corruptChunk != 0 {
			s = corrupting{Serializer: s, index: r.induce.corruptChunk}
		}
		if r.tr != nil {
			s = tracedSerializer{Serializer: s, t: r.tr}
		}
		reg.MustRegister(s, e.proto)
	}
	return reg
}

// corrupting flips one bit of one chunk's body as it is serialised.
type corrupting struct {
	codec.Serializer
	index uint64
}

// Serialize implements codec.Serializer.
func (c corrupting) Serialize(w io.Writer, v interface{}) error {
	if m, ok := v.(*filetransfer.ChunkMsg); ok && m.TransferID == bulkTransfer && uint64(m.Index) == c.index {
		dup := *m
		dup.Body = append([]byte(nil), m.Body...)
		dup.Body[len(dup.Body)/2] ^= 1
		v = &dup
	}
	return c.Serializer.Serialize(w, v)
}

// node is one kompics.System running a core.Network and one app.
type node struct {
	sys     *kompics.System
	net     *core.Network
	netComp *kompics.Component
	app     *kompics.Component
	faults  chan *kompics.Fault
}

// app is a component that requires the network port.
type app interface {
	kompics.Definition
	netPort() *kompics.Port
}

func newNode(r *run, addr core.BasicAddress, a app) (*node, error) {
	cfg := core.NetworkConfig{Self: addr, Registry: registry(r)}
	if r.tr != nil {
		cfg.Compressor = &tracedCompressor{inner: codec.NewFlate(-1), t: r.tr}
	}
	netDef, err := core.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	n := &node{net: netDef, faults: make(chan *kompics.Fault, 1)}
	n.sys = kompics.NewSystem(kompics.WithFaultHandler(func(f *kompics.Fault) {
		select {
		case n.faults <- f:
		default:
		}
	}))
	n.netComp = n.sys.Create(netDef)
	n.app = n.sys.Create(a)
	if _, err := kompics.Connect(netDef.Port(), a.netPort()); err != nil {
		n.sys.Shutdown()
		return nil, err
	}
	n.sys.Start(n.netComp)
	n.sys.Start(n.app)
	return n, nil
}

// awaitListening waits until the network has bound every listener.
func (n *node) awaitListening(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for n.net.Addr(core.TCP) == "" || n.net.Addr(core.UDP) == "" || n.net.Addr(core.UDT) == "" {
		select {
		case f := <-n.faults:
			return fmt.Errorf("starting network: %v", f)
		default:
		}
		if time.Now().After(deadline) {
			return errors.New("network did not bind its listeners")
		}
		// Yield rather than sleep: an idle runtime wakes a sleeper up to a
		// millisecond late, which set-up would then count.
		runtime.Gosched()
	}
	return nil
}

// close stops the network (listeners, channels, codec stages), lets both
// systems drain and shuts the scheduler down.
func (n *node) close() {
	n.sys.Stop(n.app)
	n.sys.Stop(n.netComp)
	n.sys.AwaitQuiescence()
	n.sys.Shutdown()
}

// pair is the two-node stack: a driver on a sends, a sink on b receives.
type pair struct {
	a, b *node
	drv  *driver
	snk  *sink
}

// freeBase picks a port p such that TCP and UDP on p, and UDP on p+1
// (where core puts UDT), are free on loopback.
func freeBase() (int, error) {
	for attempt := 0; attempt < 200; attempt++ {
		p := 20000 + 2*rand.IntN(20000)
		if portFree(p) && portFree(p+1) {
			return p, nil
		}
	}
	return 0, errors.New("no free loopback port pair")
}

func portFree(p int) bool {
	addr := fmt.Sprintf("127.0.0.1:%d", p)
	tl, err := net.Listen("tcp", addr)
	if err != nil {
		return false
	}
	tl.Close()
	ul, err := net.ListenPacket("udp", addr)
	if err != nil {
		return false
	}
	ul.Close()
	return true
}

func loopback(port int) core.BasicAddress { return core.NewAddress(net.IPv4(127, 0, 0, 1), port) }

// addresses picks the two nodes' addresses; it is kept out of the timed
// set-up because probing ports is the benchmark's own work.
func addresses() (a, b core.BasicAddress, err error) {
	pa, err := freeBase()
	if err != nil {
		return a, b, err
	}
	pb, err := freeBase()
	for err == nil && pb == pa {
		pb, err = freeBase()
	}
	if err != nil {
		return a, b, err
	}
	return loopback(pa), loopback(pb), nil
}

// setUpOnFreePorts runs setUp on freshly picked ports, picking again when
// another process takes a port between the probe and the bind.
func setUpOnFreePorts(r *run) (*pair, time.Duration, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var a, b core.BasicAddress
		if a, b, err = addresses(); err != nil {
			return nil, 0, err
		}
		if r.tr != nil {
			r.tr.clientPort = a.Port()
		}
		p, d, errUp := setUp(r, a, b)
		if errUp == nil {
			return p, d, nil
		}
		err = errUp
	}
	return nil, 0, err
}

// setUp builds both nodes and waits until the workload's first message of
// every flow it uses has reached the sink. It returns the stack and how
// long that took.
func setUp(r *run, a, b core.BasicAddress) (*pair, time.Duration, error) {
	start := time.Now()
	p := &pair{
		drv: newDriver(r, a, b),
		snk: newSink(r, b),
	}
	var err error
	if p.b, err = newNode(r, b, p.snk); err != nil {
		return nil, 0, err
	}
	// The receiver is up before the sender dials it, as a server would be;
	// otherwise the first dial can race the bind and pay a redial backoff.
	if err := p.b.awaitListening(10 * time.Second); err != nil {
		p.b.close()
		return nil, 0, err
	}
	if p.a, err = newNode(r, a, p.drv); err != nil {
		p.b.close()
		return nil, 0, err
	}
	p.drv.comp.SelfTrigger(sendSetup{})
	want := 1
	if r.kind == "mixed" {
		want = 2
	}
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for got := 0; got < want; {
		select {
		case <-p.snk.setup:
			got++
		case f := <-p.a.faults:
			p.close()
			return nil, 0, fmt.Errorf("set-up: sender node faulted: %v", f)
		case f := <-p.b.faults:
			p.close()
			return nil, 0, fmt.Errorf("set-up: receiver node faulted: %v", f)
		case <-timeout.C:
			p.close()
			return nil, 0, errors.New("set-up: first message not delivered within 10s")
		}
	}
	return p, time.Since(start), nil
}

func (p *pair) close() {
	p.a.close()
	p.b.close()
}

// --- driver: the sending app ------------------------------------------------

type sendSetup struct{}
type pingDue struct {
	seq uint64
	at  int64 // when the generator emitted it
}
type chunkDue struct{}
type rpcDue struct{ at int64 } // when the generator emitted the burst
type collect struct{ out chan<- *appResult }

// appResult is what an app measured, handed to the main goroutine once
// traffic has stopped.
type appResult struct {
	lat      latency // rpc and ping round trips from their emission, or chunk one-way times
	oneway   hist    // requests, replies, pings and pongs: sending app Trigger → this app's handler
	notify   hist    // NotifyReq → NotifyResp
	probe    hist    // kompics event wait
	okOps    uint64  // verified chunks, echoes or pongs
	extra    uint64  // failures no sent message accounts for: duplicate chunks, unknown replies
	notified uint64  // failed NotifyResps
}

type pendingReq struct {
	slot int
	at   int64
}

// driver is the app on the sending node. All its state is touched only on
// its component thread, except the atomics the main goroutine polls.
type driver struct {
	r          *run
	self, peer core.BasicAddress

	chunksSent atomic.Uint64
	rpcSent    atomic.Uint64
	rpcGood    atomic.Uint64 // verified echo payload bytes
	rpcOpen    atomic.Int64
	pingsSent  atomic.Uint64
	pingsOpen  atomic.Int64
	delivered  atomic.Uint64 // messages this app handled

	ctx  *kompics.Context
	comp *kompics.Component
	net  *kompics.Port

	chunkProto core.Transport
	credit     int // chunks due but not yet sent
	nextChunk  uint64
	window     int
	nextReq    uint64
	slots      [][]byte
	free       []int
	reqs       map[uint64]pendingReq
	pings      map[uint64]int64 // emit time by ping seq
	notifyAt   map[uint64]int64
	res        appResult
}

func newDriver(r *run, self, peer core.BasicAddress) *driver {
	d := &driver{
		r: r, self: self, peer: peer, chunkProto: core.TCP,
		reqs: map[uint64]pendingReq{}, pings: map[uint64]int64{}, notifyAt: map[uint64]int64{},
		res: appResult{lat: newLatency(r.parts)},
	}
	if r.kind == "mixed" {
		d.chunkProto = core.UDT
	}
	return d
}

func (d *driver) netPort() *kompics.Port { return d.net }

// Init implements kompics.Definition.
func (d *driver) Init(ctx *kompics.Context) {
	d.ctx = ctx
	d.comp = ctx.Component()
	d.net = ctx.Requires(core.NetworkPort)
	ctx.SubscribeSelf(sendSetup{}, func(kompics.Event) { d.sendSetup() })
	ctx.SubscribeSelf(pingDue{}, func(e kompics.Event) { d.sendPing(e.(pingDue)) })
	ctx.SubscribeSelf(rpcDue{}, func(e kompics.Event) {
		for i := 0; i < rpcBurst; i++ {
			d.sendReq(e.(rpcDue).at)
		}
	})
	ctx.SubscribeSelf(chunkDue{}, func(kompics.Event) {
		d.credit++
		d.fillWindow()
	})
	ctx.SubscribeSelf(collect{}, func(e kompics.Event) {
		res := d.res
		res.lat = d.res.lat.clone()
		e.(collect).out <- &res
	})
	ctx.Subscribe(d.net, core.NotifyResp{}, func(e kompics.Event) { d.onNotify(e.(core.NotifyResp)) })
	ctx.Subscribe(d.net, (*core.Msg)(nil), func(e kompics.Event) {
		d.delivered.Add(1)
		switch m := e.(type) {
		case *core.DataMsg:
			d.onEcho(m)
		case *pingpong.Pong:
			d.onPong(m)
		}
	})
}

// send triggers msg with a notify request, stamping it on the shared
// clock and opening its spans when traced.
func (d *driver) send(msg core.Msg, id uint64) {
	now := d.r.clk.now()
	d.notifyAt[id] = now
	d.r.stamps.put(id, now)
	if tr := d.r.tr; tr != nil && tr.sampled(id) {
		tr.begin(spOneway, id, now)
		tr.begin(spNotify, id, now)
	}
	d.ctx.Trigger(core.NotifyReq{ID: id, Msg: msg}, d.net)
}

func (d *driver) sendSetup() {
	switch d.r.kind {
	case "rpc":
		buf := make([]byte, recordSize)
		d.r.in.fillRecord(buf, 0)
		d.ctx.Trigger(&core.DataMsg{Hdr: core.NewHeader(d.self, d.peer, core.TCP), Payload: buf}, d.net)
	case "mixed":
		d.ctx.Trigger(&pingpong.Ping{Src: d.self, Dst: d.peer, Proto: core.TCP}, d.net)
		fallthrough
	default:
		d.ctx.Trigger(&filetransfer.ChunkMsg{
			Src: d.self, Dst: d.peer, Proto: d.chunkProto,
			TransferID: setupTransfer, Body: d.r.in.chunks[0],
		}, d.net)
	}
}

func (d *driver) fillWindow() {
	for d.window < chunkWindow && d.credit > 0 && !d.r.stop.Load() {
		d.credit--
		i := d.nextChunk
		d.nextChunk++
		d.window++
		d.chunksSent.Add(1)
		d.send(&filetransfer.ChunkMsg{
			Src: d.self, Dst: d.peer, Proto: d.chunkProto,
			TransferID: bulkTransfer, Index: uint32(i), Body: d.r.in.chunks[i%chunkPool],
		}, traceID(flowChunk, i))
	}
}

// sendReq sends the next request in a buffer that stays untouched until
// its echo is checked, taking a new one when every buffer is in flight.
func (d *driver) sendReq(at int64) {
	if d.r.stop.Load() {
		return
	}
	if len(d.free) == 0 {
		d.free = append(d.free, len(d.slots))
		d.slots = append(d.slots, make([]byte, recordSize))
	}
	slot := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	d.nextReq++
	seq := d.nextReq
	buf := d.slots[slot]
	d.r.in.fillRecord(buf, seq)
	d.reqs[seq] = pendingReq{slot: slot, at: at}
	d.rpcSent.Add(1)
	d.rpcOpen.Add(1)
	d.send(&core.DataMsg{Hdr: core.NewHeader(d.self, d.peer, core.TCP), Payload: buf}, traceID(flowReq, seq))
}

func (d *driver) sendPing(p pingDue) {
	d.pings[p.seq] = p.at
	d.pingsSent.Add(1)
	d.pingsOpen.Add(1)
	d.send(&pingpong.Ping{Src: d.self, Dst: d.peer, Proto: core.TCP, Seq: p.seq}, traceID(flowPing, p.seq))
}

func (d *driver) onNotify(resp core.NotifyResp) {
	now := d.r.clk.now()
	if at, ok := d.notifyAt[resp.ID]; ok {
		delete(d.notifyAt, resp.ID)
		d.r.record(&d.res.notify, at, now)
	}
	if tr := d.r.tr; tr != nil && tr.sampled(resp.ID) {
		tr.end(spNotify, resp.ID, now)
	}
	if resp.Err != nil {
		d.res.notified++
	}
	if resp.ID>>56 == flowChunk {
		d.window--
		d.fillWindow()
	}
}

// arrive closes a message's one-way span and returns when the message
// was sent.
func arrive(r *run, id uint64, now int64) (int64, bool) {
	if tr := r.tr; tr != nil && tr.sampled(id) {
		tr.end(spOneway, id, now)
	}
	return r.stamps.take(id)
}

func (d *driver) onEcho(m *core.DataMsg) {
	now := d.r.clk.now()
	seq, ok := recordSeq(m.Payload)
	req, pending := d.reqs[seq]
	if !ok || !pending {
		d.res.extra++
		return
	}
	if at, ok := arrive(d.r, traceID(flowRep, seq), now); ok {
		d.r.record(&d.res.oneway, at, now)
	}
	delete(d.reqs, seq)
	d.rpcOpen.Add(-1)
	if bytes.Equal(m.Payload, d.slots[req.slot]) {
		d.res.okOps++
		d.rpcGood.Add(uint64(len(m.Payload)))
		d.r.recordPart(&d.res.lat, req.at, now)
	}
	d.free = append(d.free, req.slot)
}

func (d *driver) onPong(m *pingpong.Pong) {
	now := d.r.clk.now()
	sent, ok := d.pings[m.Seq]
	if !ok {
		d.res.extra++
		return
	}
	if at, ok := arrive(d.r, traceID(flowPong, m.Seq), now); ok {
		d.r.record(&d.res.oneway, at, now)
	}
	delete(d.pings, m.Seq)
	d.pingsOpen.Add(-1)
	d.res.okOps++
	d.r.recordPart(&d.res.lat, sent, now)
}

// --- sink: the receiving app ------------------------------------------------

// sink is the app on the receiving node: it verifies chunks, echoes rpc
// requests and answers pings.
type sink struct {
	r    *run
	self core.BasicAddress

	setup     chan struct{}
	good      atomic.Uint64 // verified chunk bytes
	accounted atomic.Uint64 // chunks received, verified or not
	delivered atomic.Uint64 // messages this app handled

	ctx  *kompics.Context
	net  *kompics.Port
	seen []uint64 // bitset of chunk indexes received
	res  appResult
}

func newSink(r *run, self core.BasicAddress) *sink {
	// One slot per flow the set-up probe uses, so the handler never blocks.
	return &sink{r: r, self: self, setup: make(chan struct{}, 2), res: appResult{lat: newLatency(r.parts)}}
}

func (s *sink) netPort() *kompics.Port { return s.net }

// Init implements kompics.Definition.
func (s *sink) Init(ctx *kompics.Context) {
	s.ctx = ctx
	s.net = ctx.Requires(core.NetworkPort)
	ctx.SubscribeSelf(collect{}, func(e kompics.Event) {
		res := s.res
		res.lat = s.res.lat.clone()
		e.(collect).out <- &res
	})
	ctx.Subscribe(s.net, (*core.Msg)(nil), func(e kompics.Event) {
		s.delivered.Add(1)
		switch m := e.(type) {
		case *filetransfer.ChunkMsg:
			s.onChunk(m)
		case *core.DataMsg:
			s.onRequest(m)
		case *pingpong.Ping:
			s.onPing(m)
		}
	})
}

func (s *sink) setupDone() {
	select {
	case s.setup <- struct{}{}:
	default:
	}
}

func (s *sink) onChunk(m *filetransfer.ChunkMsg) {
	if m.TransferID == setupTransfer {
		s.setupDone()
		return
	}
	now := s.r.clk.now()
	i := uint64(m.Index)
	if at, ok := arrive(s.r, traceID(flowChunk, i), now); ok {
		s.r.recordPart(&s.res.lat, at, now)
	}
	s.accounted.Add(1)
	for uint64(len(s.seen)) <= i/64 {
		s.seen = append(s.seen, 0)
	}
	word, bit := &s.seen[i/64], uint64(1)<<(i%64)
	if *word&bit != 0 {
		s.res.extra++
		return
	}
	if len(m.Body) != chunkSize || crc32.Checksum(m.Body, castagnoli) != s.r.in.crcs[i%chunkPool] {
		return
	}
	*word |= bit
	s.res.okOps++
	s.good.Add(uint64(len(m.Body)))
}

func (s *sink) onRequest(m *core.DataMsg) {
	seq, _ := recordSeq(m.Payload)
	if seq == 0 {
		s.setupDone()
		return
	}
	now := s.r.clk.now()
	if at, ok := arrive(s.r, traceID(flowReq, seq), now); ok {
		s.r.record(&s.res.oneway, at, now)
	}
	if seq == s.r.induce.dropReply {
		return
	}
	s.reply(&core.DataMsg{Hdr: core.NewHeader(s.self, m.Hdr.Src, core.TCP), Payload: m.Payload}, traceID(flowRep, seq), now)
}

func (s *sink) onPing(m *pingpong.Ping) {
	if m.Seq == 0 {
		s.setupDone()
		return
	}
	now := s.r.clk.now()
	if at, ok := arrive(s.r, traceID(flowPing, m.Seq), now); ok {
		s.r.record(&s.res.oneway, at, now)
	}
	s.reply(&pingpong.Pong{Src: s.self, Dst: m.Src, Proto: m.Proto, Seq: m.Seq}, traceID(flowPong, m.Seq), now)
}

// reply sends a response without a notify request, stamping it for the
// one-way time at the driver.
func (s *sink) reply(msg core.Msg, id uint64, now int64) {
	s.r.stamps.put(id, now)
	if tr := s.r.tr; tr != nil && tr.sampled(id) {
		tr.begin(spOneway, id, now)
	}
	s.ctx.Trigger(msg, s.net)
}

// --- probe: kompics scheduler wait ------------------------------------------

type probeEvent struct {
	seq uint64
	at  int64
}

// probe is a component on the sending node's system that measures how
// long a SelfTriggered event waits for the scheduler.
type probe struct {
	r    *run
	comp *kompics.Component
	res  appResult
}

// Init implements kompics.Definition.
func (p *probe) Init(ctx *kompics.Context) {
	p.comp = ctx.Component()
	ctx.SubscribeSelf(probeEvent{}, func(e kompics.Event) {
		ev := e.(probeEvent)
		now := p.r.clk.now()
		p.r.record(&p.res.probe, ev.at, now)
		if p.r.tr.sampled(ev.seq) {
			p.r.tr.root(spEventWait, traceID(flowProbe, ev.seq), ev.at, now)
		}
	})
	ctx.SubscribeSelf(collect{}, func(e kompics.Event) {
		res := p.res
		e.(collect).out <- &res
	})
}
