package bitpack

import (
	"encoding/binary"
	"testing"
)

// FuzzPackDeltas drives the delta codec with arbitrary int32 sequences (the
// fuzzer's bytes reinterpreted four at a time): packing then unpacking must
// reproduce the input exactly through both decoders (arena words and
// serialized bytes), the handle must validate against its own arena, and
// block metadata must stay within the codec's invariants (N in
// [1, BlockSize], payload in range). Wired into `make fuzz-smoke`.
func FuzzPackDeltas(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0x00, 0x00, 0x00, 0x80})
	seed := make([]byte, 4*(2*BlockSize+1))
	for i := range seed {
		seed[i] = byte(i * 13)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		ids := make([]int32, 0, len(data)/4)
		for len(data) >= 4 {
			ids = append(ids, int32(binary.LittleEndian.Uint32(data)))
			data = data[4:]
		}
		roundTrip(t, ids)
	})
}
