package serve

import (
	"bytes"
	"testing"

	"nshd/internal/engine"
)

// FuzzDecodePartialResponse holds arbitrary /partial response frames, against
// arbitrary expectations of the caller, to three properties: the decoder
// never panics; a frame it accepts is the one appendPartialResponse writes
// for the decoded value, byte for byte (so no two frames decode alike and no
// field is dropped); and the score slices grow by no more than the payload
// the frame actually carries — nothing is sized by a count the header claims.
// The corpus under testdata/fuzz holds a valid frame of each kernel (finite
// and NaN/Inf scores: a shard's scores are not inputs, the bits must survive)
// and one frame for each refusal: cut header, n / k / fullD off the
// expectation, hi ≤ lo, hi > fullD, kernel byte 2, payload a byte short and
// a byte long.
func FuzzDecodePartialResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte, wantN, wantK uint8, wantFullD uint16) {
		var ps engine.PartialScores
		version, err := decodePartialResponse(&ps, frame, int(wantN), int(wantK), int(wantFullD))
		if grown, payload := 4*(cap(ps.Ints)+cap(ps.Floats)), len(frame)-partialRespHeaderLen; grown > max(payload, 0) {
			t.Fatalf("score slices grew to %d bytes on a payload of %d (err %v)", grown, payload, err)
		}
		if err != nil {
			return
		}
		if ps.N != int(wantN) || ps.K != int(wantK) || ps.FullD != int(wantFullD) || ps.Lo >= ps.Hi || ps.Hi > ps.FullD {
			t.Fatalf("accepted n=%d k=%d [%d,%d) of %d against n=%d k=%d fullD=%d", ps.N, ps.K, ps.Lo, ps.Hi, ps.FullD, wantN, wantK, wantFullD)
		}
		if again := appendPartialResponse(nil, &ps, version); !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame does not re-encode to itself:\n got %x\nwant %x", again, frame)
		}
	})
}
