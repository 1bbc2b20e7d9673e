package aim

import (
	"math"
	"testing"

	"newton/internal/bf16"
)

func TestGlobalBufferWriteRead(t *testing.T) {
	g := NewGlobalBuffer(32, 256)
	if g.Lanes() != 16 {
		t.Fatalf("lanes=%d", g.Lanes())
	}
	v := make(bf16.Vector, 16)
	for i := range v {
		v[i] = bf16.FromFloat32(float32(i))
	}
	if err := g.WriteSlot(5, v.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, err := g.SubChunkView(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("lane %d: %v != %v", i, got[i], v[i])
		}
	}
	checkWidened(t, g, 5, 6, v)
	if _, _, err := g.SubChunks(4, 6); err == nil {
		t.Error("a run through a never-written slot accepted")
	}
	if _, _, err := g.SubChunks(30, 33); err == nil {
		t.Error("a run past the last slot accepted")
	}
}

// TestWidenIntoExact holds the lanes a GWRITE widens into, the MAC
// units' float32 operand, to Num.Float32 bit for bit over every byte
// pattern, NaNs included, and a rewritten slot's lanes to the new data.
func TestWidenIntoExact(t *testing.T) {
	g := NewGlobalBuffer(32, 256)
	all := make(bf16.Vector, 256)
	for i := range all {
		all[i] = bf16.FromBits(uint16(i * 257))
	}
	for s := 0; s < 16; s++ {
		if err := g.WriteSlot(8+s, all[16*s:16*(s+1)].Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.WriteSlot(5, all[16:32].Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteSlot(5, all[:16].Bytes()); err != nil {
		t.Fatal(err)
	}
	checkWidened(t, g, 8, 24, all)
	checkWidened(t, g, 5, 6, all[:16])
}

// checkWidened holds slots [from, to) of g, as SubChunks hands them
// out, to want: the bf16 lanes bit for bit, and the widened lanes to
// Num.Float32's bits.
func checkWidened(t *testing.T, g *GlobalBuffer, from, to int, want bf16.Vector) {
	t.Helper()
	lanes, wide, err := g.SubChunks(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(lanes) != len(want) || len(wide) != len(want) {
		t.Fatalf("slots %d-%d: %d lanes and %d widened, want %d", from, to-1, len(lanes), len(wide), len(want))
	}
	for i, n := range want {
		if lanes[i] != n || math.Float32bits(wide[i]) != math.Float32bits(n.Float32()) {
			t.Fatalf("slots %d-%d lane %d: %#04x widened to %#08x, want %#04x and %#08x",
				from, to-1, i, uint16(lanes[i]), math.Float32bits(wide[i]), uint16(n), math.Float32bits(n.Float32()))
		}
	}
}

func TestGlobalBufferErrors(t *testing.T) {
	g := NewGlobalBuffer(4, 256)
	if err := g.WriteSlot(-1, make([]byte, 32)); err == nil {
		t.Error("negative slot accepted")
	}
	if err := g.WriteSlot(4, make([]byte, 32)); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if err := g.WriteSlot(0, make([]byte, 31)); err == nil {
		t.Error("short payload accepted")
	}
	if _, err := g.SubChunkView(9); err == nil {
		t.Error("out-of-range read accepted")
	}
	if _, err := g.SubChunkView(1); err == nil {
		t.Error("read of never-written slot accepted")
	}
}
