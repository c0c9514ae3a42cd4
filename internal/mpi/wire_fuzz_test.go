package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzMPIWire feeds arbitrary bytes to the engine's two wire decoders,
// decodeEnv (control envelopes, the 32-byte kCTSW window descriptor
// included) and parseColl (the multicast fast-path header). Neither may
// panic; each must reject exactly the inputs its encoder cannot
// produce (an envelope's context word is always envCtx); an accepted
// input must re-encode to the same bytes; and no input may be accepted
// by both, since handleRaw tells the two apart by trying parseColl
// first. Its seed corpus is under testdata/fuzz/FuzzMPIWire.
func FuzzMPIWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := decodeEnv(data)
		wellFormed := (len(data) == envBytes && data[0] != kCTSW ||
			len(data) == envWinBytes && data[0] == kCTSW) &&
			data[0] >= kEager && data[0] <= kRFall &&
			data[1]|data[2]|data[3] == 0 &&
			binary.LittleEndian.Uint32(data[4:]) == envCtx
		switch {
		case err != nil && !errors.Is(err, ErrProtocol):
			t.Fatalf("decodeEnv(%x): %v, want an ErrProtocol", data, err)
		case (err == nil) != wellFormed:
			t.Fatalf("decodeEnv(%x): err=%v, want accepted=%v", data, err, wellFormed)
		case err == nil && !bytes.Equal(encodeEnv(nil, env), data):
			t.Fatalf("decodeEnv(%x) = %+v, re-encodes to %x", data, env, encodeEnv(nil, env))
		}

		op, seq, payload, ok := parseColl(data)
		isColl := len(data) >= collHdrBytes && data[0] == collMagic
		switch {
		case ok != isColl:
			t.Fatalf("parseColl(%x): ok=%v, want %v", data, ok, isColl)
		case ok && !bytes.Equal(append(collHdr(op, seq), payload...), data):
			t.Fatalf("parseColl(%x) = op %d seq %d payload %x, re-encodes differently", data, op, seq, payload)
		case ok && err == nil:
			t.Fatalf("%x decodes both as an envelope and as a fast-path message", data)
		}
	})
}
