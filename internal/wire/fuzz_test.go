package wire

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzDecode feeds Decode whatever a remote peer can send. It must never
// panic, and a message it accepts must re-encode to exactly the bytes it
// consumed: nothing a peer sends is reinterpreted on the way in. The seed
// corpus (testdata/fuzz/FuzzDecode) holds the keep-alive, lengths just
// and far over MaxMessageSize, a truncated body, and each message ID with
// a payload of the wrong length.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		m, err := Decode(r)
		if err != nil {
			return
		}
		consumed := b[:len(b)-r.Len()]
		var out bytes.Buffer
		if err := Encode(&out, m); err != nil {
			t.Fatalf("Decode accepted %x as %+v, which Encode rejects: %v", consumed, m, err)
		}
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("Decode consumed %x, its message %+v encodes as %x", consumed, m, out.Bytes())
		}
	})
}

// FuzzReadHandshake feeds ReadHandshake whatever a remote peer can send
// first. It must never panic, and a handshake it accepts is the 68 bytes
// it consumed, which WriteHandshake reproduces but for the reserved
// bytes it always writes as zeros. The seed corpus
// (testdata/fuzz/FuzzReadHandshake) holds a valid handshake, one with
// reserved bits set, a short one, a wrong pstrlen and a wrong protocol.
func FuzzReadHandshake(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		h, err := ReadHandshake(r)
		if err != nil {
			return
		}
		want := bytes.Clone(b[:len(b)-r.Len()])
		clear(want[1+len(protocolString) : 1+len(protocolString)+8])
		var out bytes.Buffer
		if err := WriteHandshake(&out, h); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("ReadHandshake consumed %x, its handshake writes as %x", want, out.Bytes())
		}
	})
}

// A length over MaxMessageSize is refused from the prefix alone: no body
// is read, and nothing the size of the claimed length is allocated.
func TestDecodeRejectsOversizedLength(t *testing.T) {
	for _, length := range []uint32{MaxMessageSize + 1, 0xFFFFFFFF} {
		b := binary.BigEndian.AppendUint32(nil, length)
		b = append(b, make([]byte, MaxMessageSize+1)...)
		r := bytes.NewReader(b)
		if m, err := Decode(r); err == nil {
			t.Fatalf("length %d accepted as %+v", length, m)
		}
		if read := len(b) - r.Len(); read != 4 {
			t.Fatalf("length %d: read %d bytes before refusing, want the 4 of the prefix", length, read)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			Decode(bytes.NewReader(b))
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 1024 {
			t.Fatalf("refusing length %d allocated %d bytes", length, per)
		}
	}
}

// A zero length is a keep-alive, not a message with ID 0 (CHOKE) and not
// an underflow: it consumes the four bytes of its prefix and no more.
func TestDecodeKeepAlive(t *testing.T) {
	r := bytes.NewReader([]byte{0, 0, 0, 0, 0, 0, 0, 1, MsgChoke})
	m, err := Decode(r)
	if err != nil || !m.KeepAlive {
		t.Fatalf("zero length decoded as %+v, err=%v", m, err)
	}
	if r.Len() != 5 {
		t.Fatalf("keep-alive consumed %d bytes, want 4", 9-r.Len())
	}
	if m, err := Decode(r); err != nil || m.KeepAlive || m.ID != MsgChoke {
		t.Fatalf("the message after a keep-alive decoded as %+v, err=%v", m, err)
	}
}
