package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/transport"
	"github.com/kompics/kompicsmessaging-go/internal/udt"
)

// datagramSize is the raw UDP floor's datagram: UDT's packet payload, so
// floor.udp_mbps bounds what udt can reach.
const datagramSize = 1400

// ladder measures each layer alone on loopback, at the workloads'
// message sizes: raw sockets (the floor), transport.Endpoint without
// core, and udt.Conn without transport. Each rung runs for step.
func ladder(in *inputs, step time.Duration) (map[string]float64, uint64, error) {
	m := map[string]float64{}
	var failed uint64
	rungs := []struct {
		name string
		run  func() (uint64, error)
	}{
		{"floor tcp rtt", func() (uint64, error) {
			p50, bad, err := floorTCPRTT(in.records[1], step)
			m["floor.tcp_rtt_us_p50"] = p50
			return bad, err
		}},
		{"floor tcp stream", func() (uint64, error) {
			v, err := floorTCPStream(in.chunks[1], step)
			m["floor.tcp_mbps"] = v
			return 0, err
		}},
		{"floor udp stream", func() (uint64, error) {
			v, err := floorUDPStream(in.chunks[1][:datagramSize], step)
			m["floor.udp_mbps"] = v
			return 0, err
		}},
		{"transport tcp rtt", func() (uint64, error) {
			p50, cpuPerMsg, bad, err := transportRTT(in.records[1], step)
			m["transport.tcp_rtt_us_p50"] = p50
			m["transport.cpu_us_per_msg"] = cpuPerMsg
			return bad, err
		}},
		{"transport tcp stream", func() (uint64, error) {
			v, bad, err := transportStream(core.TCP, in.chunks[1], step)
			m["transport.tcp_mbps"] = v
			return bad, err
		}},
		{"transport udt stream", func() (uint64, error) {
			v, bad, err := transportStream(core.UDT, in.chunks[1], step)
			m["transport.udt_mbps"] = v
			return bad, err
		}},
		{"udt stream", func() (uint64, error) {
			return 0, udtStream(in.chunks[1], step, m)
		}},
	}
	for _, r := range rungs {
		bad, err := r.run()
		if err != nil {
			return nil, 0, fmt.Errorf("ladder %s: %w", r.name, err)
		}
		failed += bad
	}
	return m, failed, nil
}

// meter samples a byte counter over the tail of a rung: the first fifth
// of step is warm-up.
func meter(count *atomic.Uint64, step time.Duration) (mbps float64, cpuMsPerMB float64) {
	time.Sleep(step / 5)
	t0, b0, c0 := time.Now(), count.Load(), cpuTime()
	time.Sleep(step - step/5)
	dt, db := time.Since(t0).Seconds(), float64(count.Load()-b0)/mib
	if db == 0 {
		return 0, 0
	}
	return db / dt, float64(cpuTime()-c0) / 1e6 / db
}

func floorTCPRTT(msg []byte, step time.Duration) (float64, uint64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, len(msg))
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	defer wg.Wait()
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	var rtts []float64
	var bad uint64
	buf := make([]byte, len(msg))
	for end := time.Now().Add(step); time.Now().Before(end); {
		t := time.Now()
		if _, err := c.Write(msg); err != nil {
			return 0, 0, err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			return 0, 0, err
		}
		rtts = append(rtts, float64(time.Since(t).Nanoseconds()))
		if !bytes.Equal(buf, msg) {
			bad++
		}
	}
	return median(rtts) / 1e3, bad, nil
}

func floorTCPStream(chunk []byte, step time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	var got atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, len(chunk))
		for {
			n, err := c.Read(buf)
			got.Add(uint64(n))
			if err != nil {
				return
			}
		}
	}()
	defer wg.Wait()
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer c.Close()
		for !stop.Load() {
			if _, err := c.Write(chunk); err != nil {
				return
			}
		}
	}()
	mbps, _ := meter(&got, step)
	stop.Store(true)
	return mbps, nil
}

func floorUDPStream(dgram []byte, step time.Duration) (float64, error) {
	rx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	var got atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 2*len(dgram))
		for {
			n, _, err := rx.ReadFrom(buf)
			if err != nil {
				return
			}
			got.Add(uint64(n))
		}
	}()
	defer wg.Wait()
	defer rx.Close()
	tx, err := net.Dial("udp", rx.LocalAddr().String())
	if err != nil {
		return 0, err
	}
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer tx.Close()
		for !stop.Load() {
			// A full socket buffer drops the datagram on loopback; the
			// floor is what the receiver gets.
			_, _ = tx.Write(dgram)
		}
	}()
	mbps, _ := meter(&got, step)
	stop.Store(true)
	return mbps, nil
}

func startEndpoint(onMessage func(transport.From, []byte)) (*transport.Endpoint, error) {
	ep, err := transport.NewEndpoint(transport.Config{
		ListenAddr: "127.0.0.1:0",
		Protocols:  []core.Transport{core.TCP, core.UDT},
		OnMessage:  onMessage,
	})
	if err != nil {
		return nil, err
	}
	if err := ep.Start(); err != nil {
		return nil, err
	}
	return ep, nil
}

// transportRTT echoes msg between two endpoints over TCP, one request
// outstanding. CPU is charged per one-way message.
func transportRTT(msg []byte, step time.Duration) (p50, cpuUsPerMsg float64, bad uint64, err error) {
	var mismatched atomic.Uint64
	replies := make(chan struct{}, 1)
	a, err := startEndpoint(func(_ transport.From, p []byte) {
		if !bytes.Equal(p, msg) {
			mismatched.Add(1)
		}
		bufpool.Put(p)
		select {
		case replies <- struct{}{}:
		default: // an echo after a timeout; nobody is waiting
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer a.Close()
	aAddr := a.Addr(core.TCP)
	var b *transport.Endpoint
	ready := make(chan struct{})
	b, err = startEndpoint(func(_ transport.From, p []byte) {
		<-ready
		b.Send(core.TCP, aAddr, p, nil)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	close(ready)
	defer b.Close()
	var rtts []float64
	c0 := cpuTime()
	for end := time.Now().Add(step); time.Now().Before(end); {
		t := time.Now()
		out := bufpool.Get(len(msg))
		copy(out, msg)
		a.Send(core.TCP, b.Addr(core.TCP), out, nil)
		select {
		case <-replies:
		case <-time.After(5 * time.Second):
			return 0, 0, 0, errors.New("echo not answered within 5s")
		}
		rtts = append(rtts, float64(time.Since(t).Nanoseconds()))
	}
	cpu := float64(cpuTime()-c0) / 1e3
	return median(rtts) / 1e3, cpu / float64(2*len(rtts)), mismatched.Load(), nil
}

// transportStream sends chunk-sized payloads from one endpoint to another
// with a NotifyResp-style window of chunkWindow, and meters the bytes the
// receiver gets.
func transportStream(proto core.Transport, chunk []byte, step time.Duration) (float64, uint64, error) {
	var got, short atomic.Uint64
	b, err := startEndpoint(func(_ transport.From, p []byte) {
		if len(p) != len(chunk) {
			short.Add(1)
		}
		got.Add(uint64(len(p)))
		bufpool.Put(p)
	})
	if err != nil {
		return 0, 0, err
	}
	defer b.Close()
	a, err := startEndpoint(func(_ transport.From, p []byte) { bufpool.Put(p) })
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	dest := b.Addr(proto)
	stop := make(chan struct{})
	var sent, failed atomic.Uint64
	window := make(chan struct{}, chunkWindow) // a slot per chunk in flight
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case window <- struct{}{}:
			}
			out := bufpool.Get(len(chunk))
			copy(out, chunk)
			sent.Add(1)
			a.Send(proto, dest, out, func(err error) {
				if err != nil {
					failed.Add(1)
				}
				<-window
			})
		}
	}()
	mbps, _ := meter(&got, step)
	close(stop)
	wg.Wait()
	for deadline := time.Now().Add(drainGrace); got.Load() < sent.Load()*uint64(len(chunk)) && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	missing := sent.Load() - got.Load()/uint64(len(chunk))
	return mbps, missing + short.Load() + failed.Load(), nil
}

// udtStream writes chunks into one udt.Conn and reads them from its peer.
func udtStream(chunk []byte, step time.Duration, m map[string]float64) error {
	l, err := udt.Listen("127.0.0.1:0", udt.Config{})
	if err != nil {
		return err
	}
	defer l.Close()
	var got atomic.Uint64
	accepted := make(chan *udt.Conn, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		nc, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		c := nc.(*udt.Conn)
		accepted <- c
		buf := make([]byte, len(chunk))
		for {
			n, err := c.Read(buf)
			got.Add(uint64(n))
			if err != nil {
				return
			}
		}
	}()
	defer wg.Wait()
	d, err := udt.Dial(l.Addr().String(), udt.Config{})
	if err != nil {
		return err
	}
	rc, ok := <-accepted
	if !ok {
		d.Close()
		return errors.New("accept failed")
	}
	defer rc.Close()
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := d.Write(chunk); err != nil {
				return
			}
		}
	}()
	mbps, cpu := meter(&got, step)
	stop.Store(true)
	mb := float64(got.Load()) / mib
	retrans, _ := d.Stats()
	_, naks := rc.Stats()
	d.Close()
	m["udt.mbps"] = mbps
	m["udt.cpu_ms_per_mb"] = cpu
	m["udt.retransmits_per_mb"] = float64(retrans) / max(mb, 1e-9)
	m["udt.naks_per_mb"] = float64(naks) / max(mb, 1e-9)
	return nil
}
