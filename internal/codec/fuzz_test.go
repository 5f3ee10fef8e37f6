package codec

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
)

// TestPropertyDecodeNeverPanicsOnGarbage feeds arbitrary bytes through
// every wire-facing decoder: errors are fine, panics are not. The
// middleware decodes traffic from the network, so this is a security
// property, not just robustness.
func TestPropertyDecodeNeverPanicsOnGarbage(t *testing.T) {
	var reg Registry
	reg.MustRegister(testMsgSerializer{}, testMsg{})
	f := func(b []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("decoder panicked on %v: %v", b, r)
				ok = false
			}
		}()
		_, _ = reg.Decode(bytes.NewReader(b))
		_, _ = ReadFrame(bytes.NewReader(b), 0)
		_, _ = ReadBytes(bytes.NewReader(b))
		_, _ = ReadString(bytes.NewReader(b))
		_, _ = ReadUvarint(bytes.NewReader(b))
		_, _ = ReadVarint(bytes.NewReader(b))
		if out, err := NewFlate(-1).Decompress(b); err == nil {
			bufpool.Put(out)
		}
		if out, err := (Snappy{}).Decompress(b); err == nil {
			bufpool.Put(out)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
