package codec

// Tests for the Snappy block codec: golden vectors written by hand from
// the format description, corrupt-input rejection, round trips across the
// encoder's block and table-size boundaries, pooled-buffer hygiene, and
// two native fuzz targets:
//
//	go test -run '^$' -fuzz FuzzSnappyDecode -fuzztime 60s ./internal/codec
//	go test -run '^$' -fuzz FuzzSnappyRoundTrip -fuzztime 60s ./internal/codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
)

// seq returns n bytes 0, 1, 2, ...: no four-byte sequence repeats within
// 256 bytes, so the encoder finds nothing to match.
func seq(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

// counter16 returns 0, 1, ... n-1 as little-endian 16-bit words. With n
// at most 256 no four-byte sequence repeats at any alignment.
func counter16(n int) []byte {
	b := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		b = binary.LittleEndian.AppendUint16(b, uint16(i))
	}
	return b
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// snappyGolden pairs a compressed block with what it decodes to. Each
// element is spelled out by hand: tag byte, then its length or offset
// bytes.
var snappyGolden = []struct {
	name       string
	compressed []byte
	want       []byte
}{
	{"empty", []byte{0x00}, []byte{}},
	{"literal tag 0-59", []byte{0x03, 2 << 2, 'a', 'b', 'c'}, []byte("abc")},
	{"literal tag 59", cat([]byte{60, 59 << 2}, seq(60)), seq(60)},
	{"literal tag 60", cat([]byte{100, 60 << 2, 99}, seq(100)), seq(100)},
	{"literal tag 61", cat([]byte{0x90, 0x03, 61 << 2, 0x8F, 0x01}, bytes.Repeat([]byte{7}, 400)), bytes.Repeat([]byte{7}, 400)},
	{"literal tag 62", []byte{3, 62 << 2, 2, 0, 0, 'x', 'y', 'z'}, []byte("xyz")},
	{"literal tag 63", []byte{3, 63 << 2, 2, 0, 0, 0, 'x', 'y', 'z'}, []byte("xyz")},
	// copy-1: length 4+(tag>>2&7), offset (tag>>5)<<8 | next byte.
	{"copy-1", []byte{12, 3 << 2, 'a', 'b', 'c', 'd', (8-4)<<2 | 0x01, 4}, []byte("abcdabcdabcd")},
	{"copy-1 high offset bits", cat([]byte{0x84, 0x02, 61 << 2, 0xFF, 0x00}, seq(256), []byte{1<<5 | (4-4)<<2 | 0x01, 0x00}), cat(seq(256), seq(4))},
	// copy-2: length 1+(tag>>2), 16-bit little-endian offset.
	{"copy-2", []byte{8, 3 << 2, 'a', 'b', 'c', 'd', (4-1)<<2 | 0x02, 4, 0}, []byte("abcdabcd")},
	{"copy-2 length 64", []byte{65, 0 << 2, 'z', 63<<2 | 0x02, 1, 0}, bytes.Repeat([]byte{'z'}, 65)},
	// copy-4: length 1+(tag>>2), 32-bit little-endian offset.
	{"copy-4", []byte{8, 3 << 2, 'a', 'b', 'c', 'd', (4-1)<<2 | 0x03, 4, 0, 0, 0}, []byte("abcdabcd")},
	// offset 1 < length: the copy repeats its own output.
	{"overlapping offset-1 run", []byte{10, 0 << 2, 'a', (9-4)<<2 | 0x01, 1}, bytes.Repeat([]byte{'a'}, 10)},
	{"overlapping offset-3 run", []byte{11, 2 << 2, 'x', 'y', 'z', (8-4)<<2 | 0x01, 3}, []byte("xyzxyzxyzxy")},
}

func TestSnappyGoldenDecode(t *testing.T) {
	for _, tc := range snappyGolden {
		got, err := Snappy{}.Decompress(tc.compressed)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: decoded %q, want %q", tc.name, got, tc.want)
		}
		bufpool.Put(got)
	}
}

// TestSnappyGoldenEncode pins the encoder's output where the format leaves
// it one obvious choice: short input is one literal, input without
// repeats is one literal, and a run is a literal byte plus one copy-2.
func TestSnappyGoldenEncode(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		want []byte
	}{
		{"empty", nil, []byte{0x00}},
		{"below match block", []byte("abc"), []byte{0x03, 2 << 2, 'a', 'b', 'c'}},
		{"no repeats, tag 60", seq(100), cat([]byte{100, 60 << 2, 99}, seq(100))},
		{"no repeats, longest tag 60", seq(256), cat([]byte{0x80, 0x02, 60 << 2, 0xFF}, seq(256))},
		{"no repeats, tag 61", counter16(150), cat([]byte{0xAC, 0x02, 61 << 2, 0x2B, 0x01}, counter16(150))},
		{"run", bytes.Repeat([]byte{'a'}, 32), []byte{32, 0 << 2, 'a', (31-1)<<2 | 0x02, 1, 0}},
	} {
		got, err := Snappy{}.Compress(tc.in)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: encoded % x, want % x", tc.name, got, tc.want)
		}
	}
}

func TestSnappyRejectsCorrupt(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"no preamble", nil},
		{"unterminated preamble", []byte{0x80}},
		{"preamble above 64 bits", bytes.Repeat([]byte{0xFF}, 11)},
		{"declared longer than decoded", []byte{4, 2 << 2, 'a', 'b', 'c'}},
		{"declared shorter than decoded", []byte{2, 2 << 2, 'a', 'b', 'c'}},
		{"literal runs past input", []byte{3, 4 << 2, 'a', 'b', 'c'}},
		{"truncated literal length", []byte{3, 61 << 2, 2}},
		{"copy before any output", []byte{4, (4-4)<<2 | 0x01, 1}},
		{"copy offset zero", []byte{5, 0 << 2, 'a', (4-4)<<2 | 0x01, 0}},
		{"copy offset past output", []byte{5, 0 << 2, 'a', (4-4)<<2 | 0x01, 2}},
		{"copy past declared length", []byte{3, 0 << 2, 'a', (4-4)<<2 | 0x01, 1}},
		{"truncated copy-1", []byte{5, 0 << 2, 'a', 0x01}},
		{"truncated copy-2", []byte{5, 0 << 2, 'a', 0x02, 1}},
		{"truncated copy-4", []byte{5, 0 << 2, 'a', 0x03, 1, 0, 0}},
		{"copy-4 offset past output", []byte{5, 0 << 2, 'a', (4-1)<<2 | 0x03, 0, 0, 0, 1}},
	} {
		if out, err := (Snappy{}).Decompress(tc.in); err == nil {
			t.Errorf("%s: decoded %q, want an error", tc.name, out)
		}
	}
}

// TestSnappyHugeDeclaredLengthAllocatesNothing checks that the declared
// length is judged before any buffer is drawn: a 6-byte frame declaring
// 1 GiB and a frame declaring more than maxChunk both fail with no
// bufpool Get.
func TestSnappyHugeDeclaredLengthAllocatesNothing(t *testing.T) {
	gets := func() uint64 {
		var n uint64
		for _, c := range bufpool.Account().Classes {
			n += c.Gets
		}
		return n
	}
	gib := binary.AppendUvarint(nil, 1<<30)
	frame := append(gib, 0x00)
	if len(frame) != 6 {
		t.Fatalf("frame is %d bytes, want 6", len(frame))
	}
	over := binary.AppendUvarint(nil, maxChunk+1)

	before := gets()
	if _, err := (Snappy{}).Decompress(frame); !errors.Is(err, ErrCorrupt) {
		t.Errorf("1 GiB from one byte: err = %v, want ErrCorrupt", err)
	}
	if _, err := (Snappy{}).Decompress(over); !errors.Is(err, ErrValueOutOfBounds) {
		t.Errorf("above maxChunk: err = %v, want ErrValueOutOfBounds", err)
	}
	if n := gets() - before; n != 0 {
		t.Fatalf("rejected frames drew %d bufpool buffers, want 0", n)
	}
}

// TestSnappyMaxDecodedLenCoversDensestBlocks decodes the densest blocks
// the format allows, checking the pre-allocation bound never rejects them.
func TestSnappyMaxDecodedLenCoversDensestBlocks(t *testing.T) {
	// Three bytes of copy-2 carry 64 bytes; two bytes of copy-1 carry 11.
	// A literal must come first, so add one 2-byte literal to each.
	lit := []byte{0 << 2, 'q'}
	for _, tc := range []struct {
		elems []byte
		n     int
	}{
		{cat(lit, []byte{63<<2 | 0x02, 1, 0}), 1 + 64},
		{cat(lit, []byte{63<<2 | 0x02, 1, 0, (11-4)<<2 | 0x01, 1}), 1 + 64 + 11},
	} {
		if got := snappyMaxDecodedLen(len(tc.elems)); got < tc.n {
			t.Fatalf("bound %d for %d bytes below a real expansion to %d", got, len(tc.elems), tc.n)
		}
		out, err := Snappy{}.Decompress(cat(binary.AppendUvarint(nil, uint64(tc.n)), tc.elems))
		if err != nil || len(out) != tc.n {
			t.Fatalf("densest block: %d bytes, err %v", len(out), err)
		}
		bufpool.Put(out)
	}
}

// text returns n bytes of a repeating sentence.
func text(n int) []byte {
	return bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog; "), n/45+1)[:n]
}

// snappyInputs spans the encoder's regimes: below the match threshold,
// every hash-table size, the 64 KiB block boundary, and several blocks;
// each size as random bytes, zeros and repeating text.
func snappyInputs() [][]byte {
	rnd := rand.New(rand.NewSource(13))
	var out [][]byte
	for _, n := range []int{0, 1, 16, 17, 18, 255, 256, 257, 1 << 10, 16<<10 + 3, 1<<16 - 1, 1 << 16, 1<<16 + 1, 3<<16 + 77} {
		random := make([]byte, n)
		rnd.Read(random)
		out = append(out, random, make([]byte, n), text(n))
	}
	return out
}

func TestSnappyRoundTrip(t *testing.T) {
	for i, in := range snappyInputs() {
		packed, err := Snappy{}.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(packed) > snappyMaxEncodedLen(len(in)) {
			t.Fatalf("input %d (%d bytes): %d compressed bytes exceed the bound %d",
				i, len(in), len(packed), snappyMaxEncodedLen(len(in)))
		}
		out, err := Snappy{}.Decompress(packed)
		if err != nil {
			t.Fatalf("input %d (%d bytes): %v", i, len(in), err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("input %d (%d bytes): corrupted round trip", i, len(in))
		}
		bufpool.Put(out)
	}
}

// TestSnappyCompressesRepeats checks the encoder actually matches:
// repeating text and zeros shrink well past the 1/8 that core's keep rule
// asks for, and random bytes grow by no more than the preamble and one
// literal tag per 64 KiB block.
func TestSnappyCompressesRepeats(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for _, n := range []int{1 << 10, 1 << 16, 3<<16 + 77} {
		random := make([]byte, n)
		rnd.Read(random)
		for _, tc := range []struct {
			name  string
			in    []byte
			limit int
		}{
			{"zeros", make([]byte, n), n / 16},
			{"text", text(n), n / 4},
			{"random", random, n + 5 + 3*(n/snappyBlock+1)},
		} {
			packed, err := Snappy{}.Compress(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if len(packed) > tc.limit {
				t.Errorf("%d %s bytes compressed to %d, want at most %d", n, tc.name, len(packed), tc.limit)
			}
		}
	}
}

// TestSnappyConcurrent runs the Flate concurrency checks on Snappy: the
// pooled hash tables and output buffers must never be shared between
// in-flight calls. Run with -race.
func TestSnappyConcurrent(t *testing.T) {
	checkDecompressConcurrent(t, Snappy{})
	checkCompressConcurrent(t, Snappy{})
}

// TestSnappyPooledOwnership checks that every Decompress output, and
// nothing else, is drawn from bufpool: returning each one balances the
// debug count, including across rejected frames.
func TestSnappyPooledOwnership(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	bufpool.ResetStats()

	for _, in := range snappyInputs() {
		packed, err := Snappy{}.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Snappy{}.Decompress(packed)
		if err != nil {
			t.Fatal(err)
		}
		bufpool.Put(out)
		if len(packed) > 2 {
			// Drop the last byte: the decode fails after its Get.
			if _, err := (Snappy{}).Decompress(packed[:len(packed)-1]); err == nil {
				t.Fatalf("truncated block of %d bytes decoded", len(in))
			}
		}
	}
	if n := bufpool.Outstanding(); n != 0 {
		t.Fatalf("leaked %d pooled buffers through Snappy", n)
	}
}

func FuzzSnappyRoundTrip(f *testing.F) {
	for _, in := range snappyInputs() {
		if len(in) <= 1<<10 {
			f.Add(in)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		packed, err := Snappy{}.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(packed) > snappyMaxEncodedLen(len(in)) {
			t.Fatalf("%d bytes compressed to %d, above the bound", len(in), len(packed))
		}
		out, err := Snappy{}.Decompress(packed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, in) {
			t.Fatal("corrupted round trip")
		}
		bufpool.Put(out)
	})
}

// FuzzSnappyDecode feeds arbitrary bytes to the decoder: it may fail, but
// must not panic, and a success decodes exactly the declared length.
func FuzzSnappyDecode(f *testing.F) {
	for _, tc := range snappyGolden {
		f.Add(tc.compressed)
	}
	f.Add(binary.AppendUvarint(nil, 1<<30))
	f.Fuzz(func(t *testing.T, in []byte) {
		out, err := Snappy{}.Decompress(in)
		if err != nil {
			return
		}
		declared, _ := binary.Uvarint(in)
		if uint64(len(out)) != declared {
			t.Fatalf("decoded %d bytes, %d declared", len(out), declared)
		}
		bufpool.Put(out)
	})
}
