package migrate

import "code56/internal/layout"

// CellClass says what a target-stripe cell contains at the moment the
// conversion starts.
type CellClass int

const (
	// OldData marks a cell holding a source data block.
	OldData CellClass = iota
	// OldParity marks a cell holding a source parity block.
	OldParity
	// Reserved marks a cell on a source disk that the source array had to
	// keep free so the target layout fits — the paper's "extra space"
	// (Fig. 12), e.g. X-Code's two parity rows.
	Reserved
	// NewCell marks a cell on a disk added by the conversion.
	NewCell
	// VirtualCell marks a cell that is NULL by construction under the
	// virtual-disk extension (§IV-B2): cells of virtual disks, and data
	// cells whose horizontal parity would live on a virtual disk.
	VirtualCell
)

// String returns a short tag.
func (c CellClass) String() string {
	switch c {
	case OldData:
		return "oldData"
	case OldParity:
		return "oldParity"
	case Reserved:
		return "reserved"
	case NewCell:
		return "new"
	case VirtualCell:
		return "virtual"
	default:
		return "?"
	}
}

// Overlay maps one target stripe onto the source array state: every cell is
// classified, and each absorbed source row records where its parity sits.
type Overlay struct {
	// Conv is the conversion being planned.
	Conv Conversion
	// Index is the target stripe index within the rotation period.
	Index int
	// Class[r][j] classifies cell (r, j).
	Class [][]CellClass
	// DataRows lists the target rows that absorb source rows, ascending.
	DataRows []int
	// OldParityCol[i] is the target column holding the parity of the i-th
	// absorbed source row (the row placed at DataRows[i]).
	OldParityCol []int
	// Virtual is the number of virtual columns (0 unless the conversion
	// uses the virtual-disk extension).
	Virtual int
}

// sourceParityCol returns the target column holding the parity of global
// source row R: the raid5 rotation over the M real source disks, offset by
// the virtual columns.
func sourceParityCol(c Conversion, virtual int, globalRow int64) int {
	return virtual + c.SourceLayout.ParityDisk(c.M, globalRow)
}

// dataRowsOf returns the target rows that hold data cells. Under the
// virtual-disk extension, rows whose horizontal parity cell sits on a
// virtual column are excluded (their data elements are virtual).
func dataRowsOf(code layout.Code, virtual int) []int {
	g := code.Geometry()
	var rows []int
	for r := 0; r < g.Rows; r++ {
		hasData := false
		parityOnVirtual := false
		for j := 0; j < g.Cols; j++ {
			switch code.Kind(r, j) {
			case layout.Data:
				hasData = true
			case layout.ParityH:
				if j < virtual {
					parityOnVirtual = true
				}
			}
		}
		if hasData && !parityOnVirtual {
			rows = append(rows, r)
		}
	}
	return rows
}

// buildOverlay classifies target stripe number idx (within the rotation
// period) for the conversion. Used by the planner and the executor.
func buildOverlay(c Conversion, idx int) Overlay {
	virtual := c.Virtual
	g := c.Code.Geometry()
	ov := Overlay{Conv: c, Index: idx, Virtual: virtual}
	ov.DataRows = dataRowsOf(c.Code, virtual)
	k := len(ov.DataRows)

	rowToOldIdx := make(map[int]int, k)
	ov.OldParityCol = make([]int, k)
	for i, r := range ov.DataRows {
		rowToOldIdx[r] = i
		globalRow := int64(idx*k + i)
		ov.OldParityCol[i] = sourceParityCol(c, virtual, globalRow)
	}

	oldCols := virtual + c.M // columns [virtual, oldCols) are source disks
	ov.Class = make([][]CellClass, g.Rows)
	for r := 0; r < g.Rows; r++ {
		ov.Class[r] = make([]CellClass, g.Cols)
		oldIdx, isDataRow := rowToOldIdx[r]
		for j := 0; j < g.Cols; j++ {
			switch {
			case j < virtual:
				ov.Class[r][j] = VirtualCell
			case j >= oldCols:
				ov.Class[r][j] = NewCell
			case !isDataRow:
				// A source-disk cell in a non-data row: either reserved
				// space for the target's parity rows (X-Code, P-Code) or,
				// under the virtual-disk extension, a virtual data row.
				if virtual > 0 {
					ov.Class[r][j] = VirtualCell
				} else {
					ov.Class[r][j] = Reserved
				}
			case j == ov.OldParityCol[oldIdx]:
				ov.Class[r][j] = OldParity
			case c.Code.Kind(r, j) == layout.Data:
				ov.Class[r][j] = OldData
			default:
				// A target parity cell on a source disk that does not
				// hold the source parity: the source must have kept it
				// free (HDP's horizontal-parity diagonal).
				ov.Class[r][j] = Reserved
			}
		}
	}
	return ov
}

// OldDataCells returns the coordinates of cells classified OldData.
func (ov Overlay) OldDataCells() []layout.Coord {
	var out []layout.Coord
	for r, row := range ov.Class {
		for j, cl := range row {
			if cl == OldData {
				out = append(out, layout.Coord{Row: r, Col: j})
			}
		}
	}
	return out
}

// Count returns the number of cells with the given class.
func (ov Overlay) Count(cl CellClass) int {
	n := 0
	for _, row := range ov.Class {
		for _, c := range row {
			if c == cl {
				n++
			}
		}
	}
	return n
}
