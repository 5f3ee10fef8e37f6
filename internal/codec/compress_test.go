package codec

// Tests for the pooled compression stage: reader/writer pool reuse under
// concurrency, the append-style compression path, and buffer hygiene.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
)

// TestFlateDecompressConcurrent hammers one Flate from many goroutines to
// verify the pooled decompress readers (and encoders) are not shared
// between in-flight calls. Run with -race to catch pool misuse.
func TestFlateDecompressConcurrent(t *testing.T) {
	checkDecompressConcurrent(t, NewFlate(-1))
}

// TestFlateCompressConcurrent does the same for the pooled encoder path,
// interleaving Compress and Decompress.
func TestFlateCompressConcurrent(t *testing.T) {
	checkCompressConcurrent(t, NewFlate(-1))
}

func checkDecompressConcurrent(t *testing.T, c Compressor) {
	t.Helper()
	// Distinct, compressible inputs per goroutine so cross-talk between
	// pooled readers would corrupt an output visibly.
	inputs := make([][]byte, 8)
	packed := make([][]byte, len(inputs))
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte(fmt.Sprintf("payload-%d|", i)), 500)
		var err error
		packed[i], err = c.Compress(inputs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < len(inputs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				out, err := c.Decompress(packed[g])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !bytes.Equal(out, inputs[g]) {
					t.Errorf("goroutine %d: corrupted round trip", g)
					return
				}
				bufpool.Put(out)
			}
		}(g)
	}
	wg.Wait()
}

func checkCompressConcurrent(t *testing.T, c Compressor) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := bytes.Repeat([]byte{byte('a' + g)}, 4096)
			for i := 0; i < 200; i++ {
				packed, err := c.Compress(in)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				out, err := c.Decompress(packed)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !bytes.Equal(out, in) {
					t.Errorf("goroutine %d: corrupted round trip", g)
					return
				}
				bufpool.Put(out)
			}
		}(g)
	}
	wg.Wait()
}

// TestFlateDecompressReaderReuse verifies sequential Decompress calls
// recycle the pooled reader and still produce independent results.
func TestFlateDecompressReaderReuse(t *testing.T) {
	c := NewFlate(-1)
	for i := 0; i < 50; i++ {
		in := bytes.Repeat([]byte{byte(i)}, 100+i)
		packed, err := c.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Decompress(packed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("round %d: corrupted round trip", i)
		}
		bufpool.Put(out)
	}
}

// appendCompressors are the compressors with the in-place hot path.
var appendCompressors = []interface {
	Compressor
	AppendCompressor
}{NewFlate(-1), Snappy{}}

// TestAppendCompressPlacesBytesInDst verifies the hot-path contract: the
// compressed form lands directly after whatever dst already holds, so a
// flag byte needs no prepend copy.
func TestAppendCompressPlacesBytesInDst(t *testing.T) {
	for _, c := range appendCompressors {
		in := bytes.Repeat([]byte("abc"), 1000)
		dst := make([]byte, 1, 4096)
		dst[0] = 0xFE
		out, err := c.AppendCompress(dst, in)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != 0xFE {
			t.Fatalf("%s: prefix byte clobbered: %#x", c.Name(), out[0])
		}
		if &out[0] != &dst[0] {
			t.Fatalf("%s: compressed output did not reuse dst's backing array", c.Name())
		}
		round, err := c.Decompress(out[1:])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(round, in) {
			t.Fatalf("%s: corrupted round trip through AppendCompress", c.Name())
		}
	}
}

// TestAppendCompressGrowsDst checks the incompressible case where the
// output cannot fit dst's capacity and must reallocate like append.
func TestAppendCompressGrowsDst(t *testing.T) {
	in := make([]byte, 32<<10)
	rand.New(rand.NewSource(7)).Read(in) // incompressible
	for _, c := range appendCompressors {
		out, err := c.AppendCompress(make([]byte, 0, 8), in)
		if err != nil {
			t.Fatal(err)
		}
		round, err := c.Decompress(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(round, in) {
			t.Fatalf("%s: corrupted round trip after dst growth", c.Name())
		}
	}
}
