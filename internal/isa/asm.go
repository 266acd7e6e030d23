package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// This file implements the textual assembly round trip: Format renders a
// program in the syntax Op.String produces, and ParseProgram reads it back.
// The text form is what chopperc emits and what hardware bring-up tooling
// would consume.

// Format renders the program as assembly text, one op per line.
func (p *Program) Format() string {
	var sb strings.Builder
	for i := range p.Ops {
		sb.WriteString(p.Ops[i].String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ParseRow parses a row name in the syntax Row.String produces
// ("D12", "C0", "T3", "DCC0", "~DCC1", "-").
func ParseRow(s string) (Row, error) {
	switch s {
	case "C0":
		return C0, nil
	case "C1":
		return C1, nil
	case "T0":
		return T0, nil
	case "T1":
		return T1, nil
	case "T2":
		return T2, nil
	case "T3":
		return T3, nil
	case "DCC0":
		return DCC0, nil
	case "~DCC0":
		return DCC0N, nil
	case "DCC1":
		return DCC1, nil
	case "~DCC1":
		return DCC1N, nil
	case "-":
		return RowNone, nil
	}
	if strings.HasPrefix(s, "D") {
		n, err := strconv.ParseInt(s[1:], 10, 16) // a Row's width
		if err != nil || n < 0 {
			return RowNone, fmt.Errorf("isa: bad row %q", s)
		}
		return Row(n), nil
	}
	return RowNone, fmt.Errorf("isa: bad row %q", s)
}

// ParseOp parses one assembly line (without a trailing newline). An
// optional "NN:" position prefix, as printed by chopperc, is ignored.
func ParseOp(line string) (Op, error) {
	line = strings.TrimSpace(line)
	if i := strings.Index(line, ":"); i >= 0 {
		if _, err := strconv.Atoi(strings.TrimSpace(line[:i])); err == nil {
			line = strings.TrimSpace(line[i+1:])
		}
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Op{}, fmt.Errorf("isa: empty op")
	}
	fail := func() (Op, error) { return Op{}, fmt.Errorf("isa: malformed op %q", line) }

	switch fields[0] {
	case "AAP":
		// AAP <src> -> <dst> [<dst> [<dst>]]
		arrow := -1
		for i, f := range fields {
			if f == "->" {
				arrow = i
			}
		}
		if arrow != 2 || len(fields) < 4 || len(fields) > 6 {
			return fail()
		}
		src, err := ParseRow(fields[1])
		if err != nil {
			return Op{}, err
		}
		var dsts []Row
		for _, f := range fields[3:] {
			d, err := ParseRow(f)
			if err != nil {
				return Op{}, err
			}
			dsts = append(dsts, d)
		}
		return NewAAP(src, dsts...), nil

	case "AP":
		// AP T0,T1,T2
		if len(fields) != 2 {
			return fail()
		}
		parts := strings.Split(fields[1], ",")
		if len(parts) != 3 {
			return fail()
		}
		var rows [3]Row
		for i, p := range parts {
			r, err := ParseRow(p)
			if err != nil {
				return Op{}, err
			}
			rows[i] = r
		}
		return NewAP(rows[0], rows[1], rows[2]), nil

	case "WRITE":
		// WRITE -> <dst> (tag N)
		var dst string
		var tag int32
		if _, err := fmt.Sscanf(line, "WRITE -> %s (tag %d)", &dst, &tag); err != nil {
			return fail()
		}
		d, err := ParseRow(dst)
		if err != nil {
			return Op{}, err
		}
		return NewWrite(d, int(tag)), nil

	case "READ":
		var src string
		var tag int32
		if _, err := fmt.Sscanf(line, "READ %s (tag %d)", &src, &tag); err != nil {
			return fail()
		}
		s, err := ParseRow(src)
		if err != nil {
			return Op{}, err
		}
		return NewRead(s, int(tag)), nil

	case "SPILL_OUT":
		var src string
		var slot uint64
		if _, err := fmt.Sscanf(line, "SPILL_OUT %s (slot %d)", &src, &slot); err != nil {
			return fail()
		}
		s, err := ParseRow(src)
		if err != nil {
			return Op{}, err
		}
		return NewSpillOut(s, slot), nil

	case "SPILL_IN":
		var dst string
		var slot uint64
		if _, err := fmt.Sscanf(line, "SPILL_IN -> %s (slot %d)", &dst, &slot); err != nil {
			return fail()
		}
		d, err := ParseRow(dst)
		if err != nil {
			return Op{}, err
		}
		return NewSpillIn(d, slot), nil
	}
	return fail()
}

// ParseProgram parses assembly text (blank lines and "//"/"#" comments are
// skipped) into a Program. DRowsUsed and SpillSlots are reconstructed from
// the row and slot references.
func ParseProgram(text string) (*Program, error) {
	p := &Program{}
	maxRow := -1
	maxSlot := -1
	for lineNo, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "//") || strings.HasPrefix(trimmed, "#") {
			continue
		}
		op, err := ParseOp(trimmed)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		p.Ops = append(p.Ops, op)
		for _, r := range op.Rows() {
			if r.IsDGroup() && int(r) > maxRow {
				maxRow = int(r)
			}
		}
		if op.Kind == OpSpillOut || op.Kind == OpSpillIn {
			if int(op.Imm) > maxSlot {
				maxSlot = int(op.Imm)
			}
		}
	}
	p.DRowsUsed = maxRow + 1
	p.SpillSlots = maxSlot + 1
	return p, nil
}
