package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"strconv"
)

// Payload geometry, matching the paper's asynchronous file transfer
// (65 KiB chunks) and a small control-plane record.
const (
	chunkSize  = 65 << 10
	recordSize = 256
	// chunkPool distinct chunk bodies are cycled through; chunk i carries
	// body i%chunkPool. 64 bodies (4 MiB) is far larger than any cache a
	// layer keeps, so reuse cannot make the stream compressible.
	chunkPool = 64
	// recordPool distinct rpc records are cycled through the same way.
	recordPool = 1024
	// seqDigits is the width of the decimal request number that opens
	// every rpc record, so an echo can be matched to its request.
	seqDigits = 11
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// inputs are generated from the seed before anything is timed; the timed
// path only indexes into them.
type inputs struct {
	chunks  [][]byte // incompressible chunk bodies
	crcs    []uint32 // CRC32C of each chunk body
	records [][]byte // compressible text records; bytes [0, seqDigits] are overwritten per request
}

// words is the vocabulary rpc records are drawn from: text-like, so the
// default compressor has something to gain on small messages.
var words = []string{
	"node", "peer", "vnode", "ring", "join", "leave", "lookup", "reply",
	"key", "value", "version", "lease", "epoch", "term", "leader", "follower",
	"commit", "abort", "prepare", "ack", "nack", "retry", "timeout", "heartbeat",
	"alive", "suspect", "dead", "gossip", "digest", "delta", "merge", "sync",
	"shard", "replica", "quorum", "read", "write", "put", "get", "delete",
	"range", "scan", "index", "status", "ok", "error", "pending", "done",
}

func newInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for i := 0; i < chunkPool; i++ {
		b := make([]byte, chunkSize)
		rng.Read(b)
		in.chunks = append(in.chunks, b)
		in.crcs = append(in.crcs, crc32.Checksum(b, castagnoli))
	}
	for i := 0; i < recordPool; i++ {
		b := make([]byte, 0, recordSize+16)
		b = fmt.Appendf(b, "%0*d ", seqDigits, 0)
		for len(b) < recordSize {
			b = append(b, words[rng.Intn(len(words))]...)
			b = append(b, "= "[rng.Intn(2)])
		}
		in.records = append(in.records, b[:recordSize])
	}
	return in
}

// fillRecord writes request seq into dst using record seq%recordPool.
func (in *inputs) fillRecord(dst []byte, seq uint64) {
	copy(dst, in.records[seq%recordPool])
	var buf [20]byte
	s := strconv.AppendUint(buf[:0], seq, 10)
	for i := 0; i < seqDigits; i++ {
		dst[i] = '0'
	}
	copy(dst[seqDigits-len(s):seqDigits], s)
}

// recordSeq parses the request number that opens an rpc record.
func recordSeq(p []byte) (uint64, bool) {
	if len(p) < seqDigits {
		return 0, false
	}
	var v uint64
	for _, c := range p[:seqDigits] {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}
