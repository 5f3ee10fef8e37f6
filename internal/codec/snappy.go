package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
)

// Snappy is the Snappy block format — the compressor of the paper's Netty
// pipeline (§V-A) — written from the public format description. A
// compressed block is the uncompressed length as a uvarint, then a run of
// elements, each introduced by a tag byte whose low two bits pick its kind:
//
//	00 literal  upper six bits hold length-1 when below 60; 60..63 say the
//	            length-1 follows in 1..4 little-endian bytes
//	01 copy-1   length 4..11 in bits 2-4, an 11-bit offset: bits 5-7 of
//	            the tag, then one byte
//	10 copy-2   length 1..64 in the upper six bits, a 2-byte offset
//	11 copy-4   length 1..64 in the upper six bits, a 4-byte offset
//
// A copy repeats length bytes starting offset bytes back in the output;
// offset may be smaller than length, which repeats a run.
//
// The encoder matches within 64 KiB blocks, so it never needs copy-4; the
// decoder accepts all four kinds. On incompressible input the encoder
// probes ever more sparsely (the reference encoder's skip heuristic), so
// the cost approaches a copy. The zero value is ready to use and safe for
// concurrent use.
type Snappy struct{}

var (
	_ Compressor       = Snappy{}
	_ AppendCompressor = Snappy{}
)

// ErrCorrupt reports compressed input that is not a valid block.
var ErrCorrupt = errors.New("codec: corrupt compressed block")

const (
	snappyLiteral = 0x00
	snappyCopy1   = 0x01
	snappyCopy2   = 0x02
	snappyCopy4   = 0x03

	// snappyBlock is the span the encoder matches within: offsets fit a
	// copy-2 and positions fit the uint16 hash table.
	snappyBlock = 1 << 16
	// snappyMargin keeps the match loop's 4- and 8-byte loads inside the
	// block; the tail it leaves is emitted as a literal.
	snappyMargin = 15
	// snappyMinMatchBlock is the shortest block worth matching in.
	snappyMinMatchBlock = 1 + 1 + snappyMargin
	// The hash table grows with the input from 1<<8 to 1<<14 entries, so
	// a short record clears a short table.
	snappyMinTableBits = 8
	snappyMaxTableBits = 14
	snappyTableMask    = 1<<snappyMaxTableBits - 1
)

// snappyTable maps a hash of four input bytes to the last block position
// they were seen at.
type snappyTable [1 << snappyMaxTableBits]uint16

var snappyTables = sync.Pool{New: func() interface{} { return new(snappyTable) }}

// snappyMaxEncodedLen bounds the compressed size of n input bytes, as the
// reference implementation documents it: room for the preamble, plus one
// byte per six input bytes (a one-byte literal then a five-byte copy,
// seven bytes out for six in, is the worst an element sequence does).
func snappyMaxEncodedLen(n int) int { return 32 + n + n/6 }

// snappyMaxDecodedLen bounds what r bytes of elements can expand to. The
// densest element is a copy-2, three bytes for up to 64 output bytes; two
// spare bytes hold one copy-1 of up to 11.
func snappyMaxDecodedLen(r int) int {
	n := r / 3 * 64
	if r%3 == 2 {
		n += 11
	}
	return n
}

// Name implements Compressor.
func (Snappy) Name() string { return "snappy" }

// Compress implements Compressor.
func (s Snappy) Compress(src []byte) ([]byte, error) {
	return s.AppendCompress(nil, src)
}

// AppendCompress implements AppendCompressor. dst is grown once, up
// front, to the worst-case encoded size.
func (Snappy) AppendCompress(dst, src []byte) ([]byte, error) {
	if len(src) > maxChunk {
		return nil, fmt.Errorf("%w: %d bytes to compress", ErrValueOutOfBounds, len(src))
	}
	dst = slices.Grow(dst, snappyMaxEncodedLen(len(src)))
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	t := snappyTables.Get().(*snappyTable)
	for len(src) > 0 {
		block := src[:min(len(src), snappyBlock)]
		src = src[len(block):]
		d := len(dst)
		out := dst[d:cap(dst)]
		if len(block) < snappyMinMatchBlock {
			d += snappyEmitLiteral(out, block)
		} else {
			d += t.encodeBlock(out, block)
		}
		dst = dst[:d]
	}
	snappyTables.Put(t)
	return dst, nil
}

func snappyLoad32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }
func snappyLoad64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }

func snappyHash(u uint32, shift uint) uint32 { return (u * 0x1e35a7bd) >> shift }

// encodeBlock writes the elements of one block (snappyMinMatchBlock to
// snappyBlock bytes) to dst and returns the number of bytes written. dst
// must hold snappyMaxEncodedLen(len(src)).
func (t *snappyTable) encodeBlock(dst, src []byte) int {
	tableBits := min(max(bits.Len(uint(len(src)-1)), snappyMinTableBits), snappyMaxTableBits)
	shift := uint(32 - tableBits)
	clear(t[:1<<tableBits])

	d := 0
	sLimit := len(src) - snappyMargin
	nextEmit := 0
	s := 1
	nextHash := snappyHash(snappyLoad32(src, s), shift)
	for {
		// Probe for a 4-byte match. Every 32 misses the stride grows by
		// one, so incompressible input is skimmed rather than hashed
		// byte by byte.
		skip := 32
		nextS := s
		candidate := 0
		for {
			s = nextS
			stride := skip >> 5
			nextS = s + stride
			skip += stride
			if nextS > sLimit {
				goto remainder
			}
			candidate = int(t[nextHash&snappyTableMask])
			t[nextHash&snappyTableMask] = uint16(s)
			nextHash = snappyHash(snappyLoad32(src, nextS), shift)
			if snappyLoad32(src, s) == snappyLoad32(src, candidate) {
				break
			}
		}
		d += snappyEmitLiteral(dst[d:], src[nextEmit:s])

		// Emit copies while the byte after each one starts another match.
		for {
			base := s
			s += 4
			for i := candidate + 4; s < len(src) && src[i] == src[s]; i, s = i+1, s+1 {
			}
			d += snappyEmitCopy(dst[d:], base-candidate, s-base)
			nextEmit = s
			if s >= sLimit {
				goto remainder
			}
			x := snappyLoad64(src, s-1)
			t[snappyHash(uint32(x), shift)&snappyTableMask] = uint16(s - 1)
			h := snappyHash(uint32(x>>8), shift) & snappyTableMask
			candidate = int(t[h])
			t[h] = uint16(s)
			if uint32(x>>8) != snappyLoad32(src, candidate) {
				nextHash = snappyHash(uint32(x>>16), shift)
				s++
				break
			}
		}
	}
remainder:
	if nextEmit < len(src) {
		d += snappyEmitLiteral(dst[d:], src[nextEmit:])
	}
	return d
}

// snappyEmitLiteral writes a literal element for lit (1 to snappyBlock
// bytes) and returns its size.
func snappyEmitLiteral(dst, lit []byte) int {
	i, n := 0, len(lit)-1
	switch {
	case n < 60:
		dst[0] = byte(n)<<2 | snappyLiteral
		i = 1
	case n < 1<<8:
		dst[0] = 60<<2 | snappyLiteral
		dst[1] = byte(n)
		i = 2
	default:
		dst[0] = 61<<2 | snappyLiteral
		dst[1] = byte(n)
		dst[2] = byte(n >> 8)
		i = 3
	}
	return i + copy(dst[i:], lit)
}

// snappyEmitCopy writes copy elements repeating length bytes from offset
// back (offset < snappyBlock, length >= 4) and returns their size.
func snappyEmitCopy(dst []byte, offset, length int) int {
	i := 0
	// Long matches go out as 64-byte copy-2s; a remainder of 65..67
	// splits as 60 + 5..7 so the last piece still fits a copy-1.
	for length >= 68 {
		dst[i] = 63<<2 | snappyCopy2
		dst[i+1], dst[i+2] = byte(offset), byte(offset>>8)
		i += 3
		length -= 64
	}
	if length > 64 {
		dst[i] = 59<<2 | snappyCopy2
		dst[i+1], dst[i+2] = byte(offset), byte(offset>>8)
		i += 3
		length -= 60
	}
	if length >= 12 || offset >= 1<<11 {
		dst[i] = byte(length-1)<<2 | snappyCopy2
		dst[i+1], dst[i+2] = byte(offset), byte(offset>>8)
		return i + 3
	}
	dst[i] = byte(offset>>8)<<5 | byte(length-4)<<2 | snappyCopy1
	dst[i+1] = byte(offset)
	return i + 2
}

// Decompress implements Compressor. The declared length is checked
// against maxChunk and against what the rest of src could expand to
// before anything is allocated; the output is then decoded into exactly
// one buffer drawn from bufpool, which the caller owns and may recycle
// with bufpool.Put. The result never aliases src.
func (Snappy) Decompress(src []byte) ([]byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, fmt.Errorf("%w: bad length preamble", ErrCorrupt)
	}
	if n > maxChunk {
		return nil, fmt.Errorf("%w: decompressed length %d", ErrValueOutOfBounds, n)
	}
	if n > uint64(snappyMaxDecodedLen(len(src)-k)) {
		return nil, fmt.Errorf("%w: %d bytes cannot expand to %d", ErrCorrupt, len(src)-k, n)
	}
	out := bufpool.Get(int(n))
	if err := snappyDecode(out, src[k:]); err != nil {
		bufpool.Put(out)
		return nil, err
	}
	return out, nil
}

// snappyDecode decodes the elements in src into dst, which must come out
// exactly full.
func snappyDecode(dst, src []byte) error {
	d, s := 0, 0
	for s < len(src) {
		tag := src[s]
		var offset, length int
		switch tag & 0x03 {
		case snappyLiteral:
			x := uint64(tag >> 2)
			if x >= 60 {
				// 60..63: length-1 in the next 1..4 little-endian bytes.
				w := int(x) - 59
				if w >= len(src)-s {
					return fmt.Errorf("%w: truncated literal length", ErrCorrupt)
				}
				x = 0
				for i := w; i >= 1; i-- {
					x = x<<8 | uint64(src[s+i])
				}
				s += w
			}
			s++
			if x >= uint64(len(dst)-d) || x >= uint64(len(src)-s) {
				return fmt.Errorf("%w: literal of %d bytes overruns", ErrCorrupt, x+1)
			}
			length = int(x) + 1
			d += copy(dst[d:], src[s:s+length])
			s += length
			continue
		case snappyCopy1:
			if len(src)-s < 2 {
				return fmt.Errorf("%w: truncated copy", ErrCorrupt)
			}
			length = 4 + int(tag>>2&0x07)
			offset = int(tag>>5)<<8 | int(src[s+1])
			s += 2
		case snappyCopy2:
			if len(src)-s < 3 {
				return fmt.Errorf("%w: truncated copy", ErrCorrupt)
			}
			length = 1 + int(tag>>2)
			offset = int(binary.LittleEndian.Uint16(src[s+1:]))
			s += 3
		case snappyCopy4:
			if len(src)-s < 5 {
				return fmt.Errorf("%w: truncated copy", ErrCorrupt)
			}
			length = 1 + int(tag>>2)
			offset = int(binary.LittleEndian.Uint32(src[s+1:]))
			s += 5
		}
		if offset <= 0 || offset > d || length > len(dst)-d {
			return fmt.Errorf("%w: copy of %d bytes from offset %d at %d", ErrCorrupt, length, offset, d)
		}
		// The source window dst[from:d] is a whole number of periods of
		// the repeated run, so each pass doubles it: an overlapping copy
		// (offset < length) takes O(log) passes, a plain one takes one.
		from, end := d-offset, d+length
		for d < end {
			d += copy(dst[d:end], dst[from:d])
		}
	}
	if d != len(dst) {
		return fmt.Errorf("%w: decoded %d of %d declared bytes", ErrCorrupt, d, len(dst))
	}
	return nil
}
