package table

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/value"
)

// Column describes one attribute.
type Column struct {
	Name string
	Kind value.Kind
}

// Schema is an ordered list of columns.
//
// Schemas built with NewSchema (and every schema owned by a Table) carry
// a shared, lazily built layout: a name→index map for ColIndex and a
// per-column byte-offset table that lets the executor address fields of
// an encoded tuple without materializing the row. Copies of such a
// schema share one layout. A zero-literal Schema{Cols: ...} still works
// everywhere, but ColIndex degrades to a linear scan and the tuple
// accessors (CheckTuple, Field, DecodeCols) rebuild the layout on every
// call — call Normalized once (hot-path entry points like
// exec.CompileFilter do) before per-tuple use.
type Schema struct {
	Cols []Column
	lay  *layout
}

// layout caches what the heap encoding implies about a schema: ints and
// floats occupy 8 bytes, so every column up to and including the first
// string column sits at a constant byte offset; columns past it need a
// cheap length-prefix walk.
type layout struct {
	once     sync.Once
	byName   map[string]int
	off      []int // constant byte offset of column i, or -1
	firstVar int   // index of the first string column; len(cols) if none
	minSize  int   // minimum encoded tuple size (strings counted empty)
}

func (l *layout) build(cols []Column) {
	l.byName = make(map[string]int, len(cols))
	l.off = make([]int, len(cols))
	l.firstVar = len(cols)
	off := 0
	for i, c := range cols {
		if _, dup := l.byName[c.Name]; !dup {
			l.byName[c.Name] = i
		}
		// Offsets are constant up to and including the first string
		// column (firstVar still holds len(cols) until that column is
		// seen, so the comparison admits it); everything past it needs
		// a length-prefix walk.
		if i <= l.firstVar {
			l.off[i] = off
		} else {
			l.off[i] = -1
		}
		if c.Kind == value.String {
			if l.firstVar == len(cols) {
				l.firstVar = i
			}
			l.minSize += 2
		} else {
			l.minSize += 8
			off += 8
		}
	}
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) Schema { return Schema{Cols: cols, lay: &layout{}} }

// layout returns the built layout, creating a throwaway one for schemas
// that bypassed NewSchema (correct but rebuilt per call — see the
// Schema doc and Normalized).
func (s Schema) layout() *layout {
	l := s.lay
	if l == nil {
		l = &layout{}
	}
	l.once.Do(func() { l.build(s.Cols) })
	return l
}

// Normalized returns s with a shareable layout attached: copies of the
// result share one lazily built layout, giving ColIndex and the tuple
// accessors their O(1) paths. table.New normalizes every table-owned
// schema; per-tuple machinery compiled against a caller-supplied schema
// (exec.CompileFilter) normalizes its own copy.
func (s Schema) Normalized() Schema {
	if s.lay == nil {
		s.lay = &layout{}
	}
	return s
}

// ColIndex returns the position of the named column, or -1. On schemas
// built with NewSchema this is a map lookup; binders and predicate
// construction call it per column reference, so it must not scan.
func (s Schema) ColIndex(name string) int {
	if s.lay != nil {
		if i, ok := s.layout().byName[name]; ok {
			return i
		}
		return -1
	}
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// FixedOffset returns col's constant byte offset within every encoded
// tuple, ok=false when the offset depends on preceding string columns.
func (s Schema) FixedOffset(col int) (int, bool) {
	o := s.layout().off[col]
	return o, o >= 0
}

// Validate checks a row against the schema.
func (s Schema) Validate(row value.Row) error {
	if len(row) != len(s.Cols) {
		return fmt.Errorf("table: row has %d values, schema has %d columns", len(row), len(s.Cols))
	}
	for i, v := range row {
		if v.K != s.Cols[i].Kind {
			return fmt.Errorf("table: column %s expects %v, got %v", s.Cols[i].Name, s.Cols[i].Kind, v.K)
		}
	}
	return nil
}

// EncodeRow serializes a row for heap storage: ints and floats as 8
// little-endian bytes, strings as a 2-byte length prefix plus bytes.
func (s Schema) EncodeRow(row value.Row) ([]byte, error) {
	if err := s.Validate(row); err != nil {
		return nil, err
	}
	size := 0
	for i, c := range s.Cols {
		if c.Kind == value.String {
			size += 2 + len(row[i].S)
		} else {
			size += 8
		}
	}
	out := make([]byte, 0, size)
	for i, c := range s.Cols {
		switch c.Kind {
		case value.Int:
			out = binary.LittleEndian.AppendUint64(out, uint64(row[i].I))
		case value.Float:
			out = binary.LittleEndian.AppendUint64(out, floatBits(row[i].F))
		default:
			if len(row[i].S) > 0xFFFF {
				return nil, fmt.Errorf("table: string too long in column %s", c.Name)
			}
			out = binary.LittleEndian.AppendUint16(out, uint16(len(row[i].S)))
			out = append(out, row[i].S...)
		}
	}
	return out, nil
}

func truncatedErr(c Column) error {
	switch c.Kind {
	case value.Int:
		return fmt.Errorf("table: truncated int column %s", c.Name)
	case value.Float:
		return fmt.Errorf("table: truncated float column %s", c.Name)
	default:
		return fmt.Errorf("table: truncated string column %s", c.Name)
	}
}

// CheckTuple validates an encoded tuple's structure without
// materializing any value: it returns exactly the error DecodeRow would
// return on the same bytes, or nil when DecodeRow would succeed. The
// compiled tuple filter runs it once per tuple before addressing fields,
// so rejected tuples never allocate.
func (s Schema) CheckTuple(data []byte) error {
	l := s.layout()
	if l.firstVar == len(s.Cols) {
		// All fixed-width: the tuple is valid iff it is exactly minSize.
		if len(data) == l.minSize {
			return nil
		}
		if len(data) > l.minSize {
			return fmt.Errorf("table: %d trailing bytes after row", len(data)-l.minSize)
		}
		return truncatedErr(s.Cols[len(data)/8])
	}
	// Every column before the first string is fixed-width, so that
	// string's offset is constant: a shorter tuple ends inside the fixed
	// prefix, in the column its length says.
	off := l.off[l.firstVar]
	if off > len(data) {
		return truncatedErr(s.Cols[len(data)/8])
	}
	for _, c := range s.Cols[l.firstVar:] {
		if c.Kind != value.String {
			if off+8 > len(data) {
				return truncatedErr(c)
			}
			off += 8
			continue
		}
		if off+2 > len(data) {
			return truncatedErr(c)
		}
		n := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+n > len(data) {
			return truncatedErr(c)
		}
		off += n
	}
	if off != len(data) {
		return fmt.Errorf("table: %d trailing bytes after row", len(data)-off)
	}
	return nil
}

// fieldStart returns the byte offset of col's encoding within tuple,
// walking length prefixes only for columns past the first string column.
func (s Schema) fieldStart(tuple []byte, col int) (int, error) {
	l := s.layout()
	if o := l.off[col]; o >= 0 {
		return o, nil
	}
	off := l.off[l.firstVar] // constant by construction
	for i := l.firstVar; i < col; i++ {
		if s.Cols[i].Kind != value.String {
			off += 8
			continue
		}
		if off+2 > len(tuple) {
			return 0, truncatedErr(s.Cols[i])
		}
		off += 2 + int(binary.LittleEndian.Uint16(tuple[off:]))
	}
	return off, nil
}

// Field returns the encoded payload of col within tuple: the 8
// little-endian bytes of an int or float, or a string's bytes without
// the length prefix. The returned slice aliases tuple and is only valid
// while tuple is.
func (s Schema) Field(tuple []byte, col int) ([]byte, error) {
	start, err := s.fieldStart(tuple, col)
	if err != nil {
		return nil, err
	}
	c := s.Cols[col]
	if c.Kind != value.String {
		if start+8 > len(tuple) {
			return nil, truncatedErr(c)
		}
		return tuple[start : start+8], nil
	}
	if start+2 > len(tuple) {
		return nil, truncatedErr(c)
	}
	n := int(binary.LittleEndian.Uint16(tuple[start:]))
	start += 2
	if start+n > len(tuple) {
		return nil, truncatedErr(c)
	}
	return tuple[start : start+n], nil
}

// decodeField materializes one field payload (as returned by Field).
func decodeField(c Column, b []byte) value.Value {
	switch c.Kind {
	case value.Int:
		return value.NewInt(int64(binary.LittleEndian.Uint64(b)))
	case value.Float:
		return value.NewFloat(floatFromBits(binary.LittleEndian.Uint64(b)))
	default:
		return value.NewString(string(b))
	}
}

// DecodeCols decodes only the listed columns of an encoded tuple into
// dst, which must have len(s.Cols) entries; other entries are left
// untouched. With cols sorted ascending (as Query.MaterializeCols
// produces) the tuple is walked once; unsorted lists fall back to
// per-column addressing. It is the executor's lazy-materialization
// primitive: survivors of the compiled filter decode just the referenced
// and projected columns into a reusable scratch row.
func (s Schema) DecodeCols(dst value.Row, tuple []byte, cols []int) error {
	if len(dst) != len(s.Cols) {
		return fmt.Errorf("table: scratch row has %d values, schema has %d columns", len(dst), len(s.Cols))
	}
	if len(cols) == 0 {
		return nil
	}
	sorted := true
	for i := 1; i < len(cols); i++ {
		if cols[i] <= cols[i-1] {
			sorted = false
			break
		}
	}
	if !sorted {
		for _, col := range cols {
			b, err := s.Field(tuple, col)
			if err != nil {
				return err
			}
			dst[col] = decodeField(s.Cols[col], b)
		}
		return nil
	}
	start, err := s.fieldStart(tuple, cols[0])
	if err != nil {
		return err
	}
	ci := 0
	off := start
	for i := cols[0]; i < len(s.Cols) && ci < len(cols); i++ {
		c := s.Cols[i]
		want := cols[ci] == i
		if c.Kind != value.String {
			if off+8 > len(tuple) {
				return truncatedErr(c)
			}
			if want {
				dst[i] = decodeField(c, tuple[off:off+8])
				ci++
			}
			off += 8
			continue
		}
		if off+2 > len(tuple) {
			return truncatedErr(c)
		}
		n := int(binary.LittleEndian.Uint16(tuple[off:]))
		off += 2
		if off+n > len(tuple) {
			return truncatedErr(c)
		}
		if want {
			dst[i] = decodeField(c, tuple[off:off+n])
			ci++
		}
		off += n
	}
	return nil
}

// DecodeRow deserializes a heap tuple.
func (s Schema) DecodeRow(data []byte) (value.Row, error) {
	row := make(value.Row, len(s.Cols))
	off := 0
	for i, c := range s.Cols {
		switch c.Kind {
		case value.Int:
			if off+8 > len(data) {
				return nil, fmt.Errorf("table: truncated int column %s", c.Name)
			}
			row[i] = value.NewInt(int64(binary.LittleEndian.Uint64(data[off:])))
			off += 8
		case value.Float:
			if off+8 > len(data) {
				return nil, fmt.Errorf("table: truncated float column %s", c.Name)
			}
			row[i] = value.NewFloat(floatFromBits(binary.LittleEndian.Uint64(data[off:])))
			off += 8
		default:
			if off+2 > len(data) {
				return nil, fmt.Errorf("table: truncated string column %s", c.Name)
			}
			n := int(binary.LittleEndian.Uint16(data[off:]))
			off += 2
			if off+n > len(data) {
				return nil, fmt.Errorf("table: truncated string column %s", c.Name)
			}
			row[i] = value.NewString(string(data[off : off+n]))
			off += n
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("table: %d trailing bytes after row", len(data)-off)
	}
	return row, nil
}
