package layout

import (
	"encoding/binary"
	"fmt"

	"newton/internal/bf16"
	"newton/internal/dram"
)

// Kind selects a filter-matrix layout.
type Kind uint8

const (
	// Interleaved is Newton's DRAM-row-wide chunk-interleaved layout
	// (Fig. 3): matrix row i's chunk c lives in bank i%banks, and chunk c
	// of all matrix rows precedes chunk c+1 of all matrix rows, so one
	// global-buffer load is reused by every matrix row.
	Interleaved Kind = iota
	// RowMajor is the §III-C alternative (Newton-no-reuse): each matrix
	// row occupies contiguous DRAM rows of a single bank, accumulating a
	// full matrix-row result per bank at the cost of re-fetching the
	// input chunk for every set of matrix rows.
	RowMajor
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Interleaved:
		return "interleaved"
	case RowMajor:
		return "row-major"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Coord locates one matrix element in the memory system.
type Coord struct {
	Channel int
	Bank    int
	Row     int // DRAM row
	Col     int // column I/O within the row
	Lane    int // bfloat16 lane within the column I/O
}

// Placement is a computed mapping of one matrix onto the device geometry.
//
// Terminology (paper §III-A/C): a *chunk* is a DRAM-row-wide span of a
// matrix row (e.g. 512 bfloat16 for 1 KB rows); a *sub-chunk* is one
// column I/O's worth (16 bfloat16); a *tile* is the computation of one
// chunk across all banks (16 matrix rows x 512 columns).
type Placement struct {
	geo     dram.Geometry
	kind    Kind
	m       *Matrix
	baseRow int // first DRAM row used in every bank

	chunkElems int // matrix columns per chunk = elements per DRAM row
	lanes      int // elements per column I/O
	numChunks  int // ceil(Cols / chunkElems)
	tiles      int // global tiles = ceil(Rows / banks)
}

// NewPlacement maps matrix m onto geometry geo with the given layout,
// starting at DRAM row 0.
func NewPlacement(geo dram.Geometry, kind Kind, m *Matrix) (*Placement, error) {
	return NewPlacementAt(geo, kind, m, 0)
}

// NewPlacementAt maps matrix m starting at the given DRAM row in every
// bank, so several matrices (a model's layers) can coexist in one device.
func NewPlacementAt(geo dram.Geometry, kind Kind, m *Matrix, baseRow int) (*Placement, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if baseRow < 0 {
		return nil, fmt.Errorf("layout: negative base row %d", baseRow)
	}
	p := &Placement{
		geo:        geo,
		kind:       kind,
		m:          m,
		baseRow:    baseRow,
		chunkElems: geo.RowBytes() / 2,
		lanes:      geo.ColBits / 16,
	}
	p.numChunks = (m.Cols + p.chunkElems - 1) / p.chunkElems
	p.tiles = (m.Rows + geo.Banks - 1) / geo.Banks
	if need, have := baseRow+p.rowsPerBankNeeded(), geo.Rows; need > have {
		return nil, fmt.Errorf("layout: matrix %dx%d at base row %d needs DRAM rows up to %d per bank, device has %d",
			m.Rows, m.Cols, baseRow, need, have)
	}
	return p, nil
}

// rowsPerBankNeeded returns the worst-case DRAM rows consumed in any bank.
func (p *Placement) rowsPerBankNeeded() int {
	tilesPerChannel := (p.tiles + p.geo.Channels - 1) / p.geo.Channels
	return p.numChunks * tilesPerChannel
}

// BaseRow returns the first DRAM row the placement occupies in each bank.
func (p *Placement) BaseRow() int { return p.baseRow }

// RowsPerBank returns the DRAM rows the placement occupies per bank on
// the given channel (0 when the channel holds no tiles).
func (p *Placement) RowsPerBank(channel int) int {
	return p.numChunks * p.ChannelTiles(channel)
}

// MaxRowsPerBank returns the largest per-bank footprint over channels,
// i.e. the row-allocation size of the placement.
func (p *Placement) MaxRowsPerBank() int { return p.rowsPerBankNeeded() }

// RowFor returns the DRAM row holding (chunk, localTile) on a channel,
// the address the host activates during the tiled schedule.
func (p *Placement) RowFor(channel, chunk, localTile int) int {
	switch p.kind {
	case RowMajor:
		return p.baseRow + localTile*p.numChunks + chunk
	default: // Interleaved
		return p.baseRow + chunk*p.ChannelTiles(channel) + localTile
	}
}

// Kind returns the layout kind.
func (p *Placement) Kind() Kind { return p.kind }

// Matrix returns the placed matrix.
func (p *Placement) Matrix() *Matrix { return p.m }

// Geometry returns the target geometry.
func (p *Placement) Geometry() dram.Geometry { return p.geo }

// NumChunks returns the number of DRAM-row-wide chunks per matrix row
// (the outermost loop bound of Algorithm 1).
func (p *Placement) NumChunks() int { return p.numChunks }

// ChunkElems returns the matrix columns covered by one chunk.
func (p *Placement) ChunkElems() int { return p.chunkElems }

// Tiles returns the number of global tiles (vertical tile positions x all
// channels): ceil(Rows / Banks).
func (p *Placement) Tiles() int { return p.tiles }

// ChannelTiles returns how many tiles channel c owns. Tiles are dealt
// round-robin so channel load is balanced to within one tile.
func (p *Placement) ChannelTiles(c int) int {
	if c < 0 || c >= p.geo.Channels {
		return 0
	}
	return (p.tiles - c + p.geo.Channels - 1) / p.geo.Channels
}

// TileChannel returns the channel owning global tile t and the tile's
// local index within that channel.
func (p *Placement) TileChannel(t int) (channel, localTile int) {
	return t % p.geo.Channels, t / p.geo.Channels
}

// GlobalTile is the inverse of TileChannel.
func (p *Placement) GlobalTile(channel, localTile int) int {
	return localTile*p.geo.Channels + channel
}

// UsedColIOs returns how many column I/Os of a chunk's DRAM row hold
// live matrix data; the remainder is padding the host never touches (the
// ideal baseline streams only live bytes, and Newton issues COMPs only
// for live sub-chunks).
func (p *Placement) UsedColIOs(chunk int) int {
	valid := p.m.Cols - chunk*p.chunkElems
	if valid > p.chunkElems {
		valid = p.chunkElems
	}
	if valid <= 0 {
		return 0
	}
	return (valid + p.lanes - 1) / p.lanes
}

// ChunkOfRow returns which chunk the DRAM row at the given address holds
// on a channel, inverting RowFor's chunk component.
func (p *Placement) ChunkOfRow(channel, dramRow int) int {
	rel := dramRow - p.baseRow
	if rel < 0 {
		return -1
	}
	switch p.kind {
	case RowMajor:
		return rel % p.numChunks
	default:
		ct := p.ChannelTiles(channel)
		if ct == 0 {
			return -1
		}
		return rel / ct
	}
}

// MatrixRow returns the matrix row computed by bank b during global tile
// t, and whether that row exists (the last tile may be ragged when Rows
// is not a multiple of Banks; paper §III-D issue 3).
func (p *Placement) MatrixRow(t, b int) (row int, ok bool) {
	row = t*p.geo.Banks + b
	return row, row < p.m.Rows
}

// Coord locates matrix element (i, j).
func (p *Placement) Coord(i, j int) Coord {
	p.m.check(i, j)
	chunk := j / p.chunkElems
	off := j % p.chunkElems
	tile := i / p.geo.Banks
	channel, local := p.TileChannel(tile)
	c := Coord{
		Channel: channel,
		Bank:    i % p.geo.Banks,
		Col:     off / p.lanes,
		Lane:    off % p.lanes,
	}
	// Interleaved is chunk-major within the channel (chunk c of all local
	// tiles, then chunk c+1); RowMajor keeps a matrix row's chunks in
	// contiguous DRAM rows. Both are what RowFor computes.
	c.Row = p.RowFor(channel, chunk, local)
	return c
}

// InvCoord maps a coordinate back to matrix indices, returning ok=false
// for coordinates that hold padding or no data. It is the inverse of
// Coord on valid elements, which the property tests assert.
func (p *Placement) InvCoord(c Coord) (i, j int, ok bool) {
	if c.Channel < 0 || c.Channel >= p.geo.Channels ||
		c.Bank < 0 || c.Bank >= p.geo.Banks ||
		c.Col < 0 || c.Col >= p.geo.Cols ||
		c.Lane < 0 || c.Lane >= p.lanes || c.Row < p.baseRow {
		return 0, 0, false
	}
	rel := c.Row - p.baseRow
	var chunk, local int
	switch p.kind {
	case Interleaved:
		ct := p.ChannelTiles(c.Channel)
		if ct == 0 {
			return 0, 0, false
		}
		chunk, local = rel/ct, rel%ct
	case RowMajor:
		local, chunk = rel/p.numChunks, rel%p.numChunks
	}
	if chunk >= p.numChunks {
		return 0, 0, false
	}
	tile := p.GlobalTile(c.Channel, local)
	i = tile*p.geo.Banks + c.Bank
	j = chunk*p.chunkElems + c.Col*p.lanes + c.Lane
	if i >= p.m.Rows || j >= p.m.Cols {
		return 0, 0, false
	}
	return i, j, true
}

// LoadChannel preloads channel ch's share of the matrix into c's banks.
// Every (matrix row, chunk) owns its own DRAM row, so each chunk is
// encoded little-endian straight into that row's storage and the rest
// of the row is cleared: a row that held data before ends exactly as a
// whole-row write of the zero-padded chunk would leave it, and padding
// computes as 0 (the host discards invalid bank results).
//
// LoadChannel touches only c and reads the matrix, so channels can load
// concurrently.
func (p *Placement) LoadChannel(ch int, c *dram.Channel) error {
	if ch < 0 || ch >= p.geo.Channels {
		return fmt.Errorf("layout: channel %d out of range [0,%d)", ch, p.geo.Channels)
	}
	if g := c.Config().Geometry; g != p.geo {
		return fmt.Errorf("layout: channel %d has geometry %+v, placement is for %+v", ch, g, p.geo)
	}
	for local := 0; local < p.ChannelTiles(ch); local++ {
		tile := p.GlobalTile(ch, local)
		for b := 0; b < p.geo.Banks; b++ {
			i, ok := p.MatrixRow(tile, b)
			if !ok {
				break
			}
			bank := c.Bank(b)
			row := p.m.Row(i)
			for chunk := 0; chunk < p.numChunks; chunk++ {
				lo := chunk * p.chunkElems
				src := row[lo:min(lo+p.chunkElems, len(row))]
				err := bank.MutateRow(p.RowFor(ch, chunk, local), func(data []byte) {
					for k, n := range src {
						binary.LittleEndian.PutUint16(data[2*k:], uint16(n))
					}
					clear(data[2*len(src):])
				})
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ChunkVector returns input-vector chunk c (length ChunkElems), zero-
// padded past the vector's end, ready to be GWRITten into the global
// buffer slot by slot.
func (p *Placement) ChunkVector(v bf16.Vector, chunk int) (bf16.Vector, error) {
	if len(v) != p.m.Cols {
		return nil, fmt.Errorf("layout: input vector length %d, matrix has %d columns", len(v), p.m.Cols)
	}
	if chunk < 0 || chunk >= p.numChunks {
		return nil, fmt.Errorf("layout: chunk %d out of range [0,%d)", chunk, p.numChunks)
	}
	out := make(bf16.Vector, p.chunkElems)
	lo := chunk * p.chunkElems
	hi := lo + p.chunkElems
	if hi > len(v) {
		hi = len(v)
	}
	copy(out, v[lo:hi])
	return out, nil
}
