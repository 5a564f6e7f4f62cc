package snap

import (
	"reflect"
	"testing"
)

// FuzzDecode feeds Decode arbitrary bytes, as a RESTORE from a remote
// peer can. Decode must never panic, and every input it accepts must
// be a fixed point of one more round trip: re-encoding the decoded
// snapshot and decoding again yields the same snapshot. Plain
// `go test` replays the seeds below; `go test -fuzz=FuzzDecode
// ./internal/snap` explores from them.
func FuzzDecode(f *testing.F) {
	data := Encode(sample())
	f.Add(data)
	for _, n := range []int{0, len(Magic), len(Magic) + 1, len(data) / 2, len(data) - 5, len(data) - 1} {
		f.Add(data[:n])
	}
	f.Add(Encode(&Snapshot{Policy: "lru", Sets: 1, Ways: 1, Hi: 1, Records: []SetRecord{{}}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Decode(b)
		if err != nil {
			return
		}
		again, err := Decode(Encode(s))
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip differs:\ngot  %+v\nwant %+v", again, s)
		}
	})
}
