package layout

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"newton/internal/bf16"
	"newton/internal/dram"
)

func smallGeometry(channels int) dram.Geometry {
	g := dram.HBM2EGeometry(channels)
	g.Rows = 256
	return g
}

func TestPlacementDerivedQuantities(t *testing.T) {
	g := smallGeometry(2)
	m := NewMatrix(40, 1100)
	p, err := NewPlacementAt(g, Interleaved, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.ChunkElems() != 512 {
		t.Errorf("ChunkElems = %d", p.ChunkElems())
	}
	if p.NumChunks() != 3 { // ceil(1100/512)
		t.Errorf("NumChunks = %d", p.NumChunks())
	}
	if p.Tiles() != 3 { // ceil(40/16)
		t.Errorf("Tiles = %d", p.Tiles())
	}
	if p.ChannelTiles(0) != 2 || p.ChannelTiles(1) != 1 {
		t.Errorf("ChannelTiles = %d,%d", p.ChannelTiles(0), p.ChannelTiles(1))
	}
	if p.ChannelTiles(-1) != 0 || p.ChannelTiles(2) != 0 {
		t.Error("out-of-range channel tiles nonzero")
	}
	if p.MaxRowsPerBank() != 3*2 { // chunks * ceil(tiles/channels)
		t.Errorf("MaxRowsPerBank = %d", p.MaxRowsPerBank())
	}
}

func TestTileChannelRoundTrip(t *testing.T) {
	g := smallGeometry(3)
	m := NewMatrix(16*7, 512)
	p, err := NewPlacementAt(g, Interleaved, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < p.Tiles(); tile++ {
		ch, local := p.TileChannel(tile)
		if got := p.GlobalTile(ch, local); got != tile {
			t.Fatalf("tile %d -> (%d,%d) -> %d", tile, ch, local, got)
		}
	}
}

func TestCoordInvCoordRoundTripProperty(t *testing.T) {
	// Property: for random shapes and layouts, Coord followed by
	// InvCoord is the identity on every valid element.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := smallGeometry(1 + rng.Intn(4))
		kind := Interleaved
		if rng.Intn(2) == 1 {
			kind = RowMajor
		}
		rows := 1 + rng.Intn(70)
		cols := 1 + rng.Intn(1400)
		m := NewMatrix(rows, cols)
		p, err := NewPlacementAt(g, kind, m, rng.Intn(8))
		if err != nil {
			return false
		}
		for n := 0; n < 50; n++ {
			i, j := rng.Intn(rows), rng.Intn(cols)
			c := p.Coord(i, j)
			gi, gj, ok := p.InvCoord(c)
			if !ok || gi != i || gj != j {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCoordBijectionSmall(t *testing.T) {
	// Every element of a small matrix maps to a distinct coordinate.
	for _, kind := range []Kind{Interleaved, RowMajor} {
		g := smallGeometry(2)
		m := NewMatrix(33, 700)
		p, err := NewPlacementAt(g, kind, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[Coord]bool)
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				c := p.Coord(i, j)
				if seen[c] {
					t.Fatalf("%v: coordinate %+v reused at (%d,%d)", kind, c, i, j)
				}
				seen[c] = true
				if c.Row >= g.Rows || c.Col >= g.Cols || c.Bank >= g.Banks || c.Channel >= g.Channels {
					t.Fatalf("%v: coordinate out of device: %+v", kind, c)
				}
			}
		}
	}
}

func TestInvCoordRejectsPadding(t *testing.T) {
	g := smallGeometry(1)
	m := NewMatrix(20, 700) // ragged in both dimensions
	p, err := NewPlacementAt(g, Interleaved, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Bank 4 of the second tile holds matrix row 20, which does not
	// exist (rows 16-19 live in banks 0-3 of that tile). Its DRAM row
	// for chunk 0 is RowFor(0, 0, 1).
	pad := Coord{Channel: 0, Bank: 4, Row: p.RowFor(0, 0, 1), Col: 0, Lane: 0}
	if _, _, ok := p.InvCoord(pad); ok {
		t.Error("padding bank decoded as valid element")
	}
	// Column past the second chunk's live width (700-512=188 elements
	// = 11.75 column I/Os; col 12 lane 4 onwards is padding).
	c := p.Coord(0, 699)
	c.Lane++ // one past the last live lane
	if _, _, ok := p.InvCoord(c); ok {
		t.Error("padding lane decoded as valid element")
	}
	// Negative / out-of-range coordinates.
	for _, bad := range []Coord{
		{Channel: -1}, {Channel: 5}, {Bank: -1}, {Bank: 99},
		{Col: -1}, {Col: 99}, {Lane: -1}, {Lane: 99}, {Row: -1},
	} {
		if _, _, ok := p.InvCoord(bad); ok {
			t.Errorf("invalid coordinate %+v accepted", bad)
		}
	}
}

func newChannels(t *testing.T, g dram.Geometry) []*dram.Channel {
	t.Helper()
	chans := make([]*dram.Channel, g.Channels)
	for i := range chans {
		ch, err := dram.NewChannel(dram.Config{Geometry: g, Timing: dram.AiMTiming()})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	return chans
}

// TestLoadMatchesCoord pins everything Load leaves in the banks, in both
// layouts, on a shape with a ragged last tile and a ragged last chunk:
// each bank stores exactly the rows Coord names, every lane of a stored
// row holds the element InvCoord maps it to or zero padding, and every
// element is stored once. The second pass loads over rows pre-filled
// with 0xff, whose padding must come out zero.
func TestLoadMatchesCoord(t *testing.T) {
	for _, kind := range []Kind{Interleaved, RowMajor} {
		for _, prefill := range []bool{false, true} {
			g := smallGeometry(3)
			m := RandomMatrix(16*3*2+7, 1100, 5)
			p, err := NewPlacementAt(g, kind, m, 3)
			if err != nil {
				t.Fatal(err)
			}
			chans := newChannels(t, g)
			want := make([][]map[int]bool, g.Channels) // [channel][bank] row set
			for ch := range want {
				want[ch] = make([]map[int]bool, g.Banks)
				for b := range want[ch] {
					want[ch][b] = map[int]bool{}
				}
			}
			for i := 0; i < m.Rows; i++ {
				for j := 0; j < m.Cols; j += p.ChunkElems() {
					c := p.Coord(i, j)
					want[c.Channel][c.Bank][c.Row] = true
				}
			}
			if prefill {
				for ch := range want {
					for b, rows := range want[ch] {
						for row := range rows {
							err := chans[ch].Bank(b).MutateRow(row, func(data []byte) {
								for k := range data {
									data[k] = 0xff
								}
							})
							if err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
			for ch, c := range chans {
				if err := p.LoadChannel(ch, c); err != nil {
					t.Fatal(err)
				}
			}

			label := fmt.Sprintf("%v prefill=%v", kind, prefill)
			lanes := g.ColBits / 16
			elems := 0
			for ch := range want {
				for b, rows := range want[ch] {
					bank := chans[ch].Bank(b)
					wantIDs := make([]int, 0, len(rows))
					for row := range rows {
						wantIDs = append(wantIDs, row)
					}
					sort.Ints(wantIDs)
					ids := bank.StoredRowIDs()
					if !slices.Equal(ids, wantIDs) {
						t.Fatalf("%s: channel %d bank %d stores rows %v, Coord names %v", label, ch, b, ids, wantIDs)
					}
					for _, row := range ids {
						img, err := bank.PeekRow(row)
						if err != nil {
							t.Fatal(err)
						}
						for col := 0; col < g.Cols; col++ {
							for lane := 0; lane < lanes; lane++ {
								got := bf16.FromBits(binary.LittleEndian.Uint16(img[2*(col*lanes+lane):]))
								var w bf16.Num
								if i, j, ok := p.InvCoord(Coord{Channel: ch, Bank: b, Row: row, Col: col, Lane: lane}); ok {
									w = m.At(i, j)
									elems++
								}
								if got != w {
									t.Fatalf("%s: channel %d bank %d row %d col %d lane %d = %#04x, want %#04x",
										label, ch, b, row, col, lane, uint16(got), uint16(w))
								}
							}
						}
					}
				}
			}
			if elems != m.Rows*m.Cols {
				t.Errorf("%s: stored rows hold %d elements, matrix has %d", label, elems, m.Rows*m.Cols)
			}
		}
	}
}

// TestLoadWrongChannelCount checks a LoadChannel index outside the
// geometry and a channel of another geometry are named errors rather
// than index panics.
func TestLoadWrongChannelCount(t *testing.T) {
	g := smallGeometry(2)
	p, err := NewPlacementAt(g, Interleaved, NewMatrix(4, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	ch := newChannels(t, g)[0]
	for _, bad := range []int{-1, 2, 7} {
		err := p.LoadChannel(bad, ch)
		if want := fmt.Sprintf("layout: channel %d out of range [0,2)", bad); err == nil || err.Error() != want {
			t.Errorf("LoadChannel(%d): got %v, want %q", bad, err, want)
		}
	}
	g.Banks /= 2
	if err := p.LoadChannel(0, newChannels(t, g)[0]); err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Errorf("LoadChannel into a %d-bank channel: got %v, want the geometry error", g.Banks, err)
	}
}

func TestPlacementCapacity(t *testing.T) {
	g := smallGeometry(1) // 256 rows per bank
	// 16 banks x 256 rows x 512 elements = 2M elements capacity.
	big := NewMatrix(16*257, 512) // needs 257 rows per bank
	if _, err := NewPlacementAt(g, Interleaved, big, 0); err == nil {
		t.Error("over-capacity matrix accepted")
	}
	// Base row shifts the limit.
	ok := NewMatrix(16*256, 512)
	if _, err := NewPlacementAt(g, Interleaved, ok, 0); err != nil {
		t.Errorf("exactly-fitting matrix rejected: %v", err)
	}
	if _, err := NewPlacementAt(g, Interleaved, ok, 1); err == nil {
		t.Error("base row overflow accepted")
	}
	if _, err := NewPlacementAt(g, Interleaved, ok, -1); err == nil {
		t.Error("negative base row accepted")
	}
}

func TestUsedColIOs(t *testing.T) {
	g := smallGeometry(1)
	m := NewMatrix(4, 700)
	p, err := NewPlacementAt(g, Interleaved, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.UsedColIOs(0); got != 32 {
		t.Errorf("chunk 0 used = %d, want 32", got)
	}
	if got := p.UsedColIOs(1); got != 12 { // ceil(188/16)
		t.Errorf("chunk 1 used = %d, want 12", got)
	}
	if got := p.UsedColIOs(2); got != 0 {
		t.Errorf("chunk 2 used = %d, want 0", got)
	}
}

func TestRowForChunkOfRowInverse(t *testing.T) {
	for _, kind := range []Kind{Interleaved, RowMajor} {
		g := smallGeometry(3)
		m := NewMatrix(16*5, 1500)
		p, err := NewPlacementAt(g, kind, m, 7)
		if err != nil {
			t.Fatal(err)
		}
		for ch := 0; ch < g.Channels; ch++ {
			for chunk := 0; chunk < p.NumChunks(); chunk++ {
				for lt := 0; lt < p.ChannelTiles(ch); lt++ {
					row := p.RowFor(ch, chunk, lt)
					if got := p.ChunkOfRow(ch, row); got != chunk {
						t.Fatalf("%v: ChunkOfRow(%d,%d) = %d, want %d", kind, ch, row, got, chunk)
					}
				}
			}
		}
		if p.ChunkOfRow(0, 0) != -1 { // below base row
			t.Errorf("%v: row below base not rejected", kind)
		}
	}
}

func TestChunkVector(t *testing.T) {
	g := smallGeometry(1)
	m := NewMatrix(4, 700)
	p, _ := NewPlacementAt(g, Interleaved, m, 0)
	v := make(bf16.Vector, 700)
	for i := range v {
		v[i] = bf16.FromFloat32(float32(i%100) + 1) // exactly representable
	}
	c0, err := p.ChunkVector(v, 0)
	if err != nil || len(c0) != 512 || c0[511].Float32() != 12 { // 511%100+1
		t.Fatalf("chunk 0 wrong: %v", err)
	}
	c1, err := p.ChunkVector(v, 1)
	if err != nil || c1[0].Float32() != 13 || !c1[200].IsZero() { // 512%100+1, then padding
		t.Fatalf("chunk 1 wrong (padding): %v", err)
	}
	if _, err := p.ChunkVector(v[:10], 0); err == nil {
		t.Error("short vector accepted")
	}
	if _, err := p.ChunkVector(v, 2); err == nil {
		t.Error("out-of-range chunk accepted")
	}
}

func TestMatrixRowRagged(t *testing.T) {
	g := smallGeometry(1)
	m := NewMatrix(20, 512)
	p, _ := NewPlacementAt(g, Interleaved, m, 0)
	if row, ok := p.MatrixRow(1, 3); !ok || row != 19 {
		t.Errorf("MatrixRow(1,3) = %d,%v", row, ok)
	}
	if _, ok := p.MatrixRow(1, 4); ok {
		t.Error("row 20 should not exist")
	}
}

func TestKindString(t *testing.T) {
	if Interleaved.String() != "interleaved" || RowMajor.String() != "row-major" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind string empty")
	}
}
