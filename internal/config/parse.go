package config

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/grid"
)

// maxKeyCoord bounds the coordinates ParseKey accepts. Key normalizes
// by subtracting the smallest node, and within ±maxKeyCoord that
// difference cannot overflow, so every accepted key's Key() parses
// back to the same pattern.
const maxKeyCoord = 1<<30 - 1

// ParseKey parses the canonical key format produced by Key:
// "q,r;q,r;...". Whitespace around separators is tolerated;
// coordinates outside ±(2³⁰−1) are refused.
func ParseKey(s string) (Config, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Config{}, nil
	}
	parts := strings.Split(s, ";")
	nodes := make([]grid.Coord, 0, len(parts))
	for _, p := range parts {
		qr := strings.Split(strings.TrimSpace(p), ",")
		if len(qr) != 2 {
			return Config{}, fmt.Errorf("config: bad node %q in key", p)
		}
		q, err := strconv.Atoi(strings.TrimSpace(qr[0]))
		if err != nil {
			return Config{}, fmt.Errorf("config: bad q in %q: %v", p, err)
		}
		r, err := strconv.Atoi(strings.TrimSpace(qr[1]))
		if err != nil {
			return Config{}, fmt.Errorf("config: bad r in %q: %v", p, err)
		}
		if q < -maxKeyCoord || q > maxKeyCoord || r < -maxKeyCoord || r > maxKeyCoord {
			return Config{}, fmt.Errorf("config: node %q outside the key range ±%d", p, maxKeyCoord)
		}
		nodes = append(nodes, grid.Coord{Q: q, R: r})
	}
	return New(nodes...), nil
}

// FromASCII parses a picture of the configuration drawn in the natural
// triangular-grid projection, where one step east moves two character
// columns and one step northeast moves one column right and one row up:
//
//	 o o
//	o o o
//	 o o
//
// Characters 'o', 'O', '*' and 'R' mark robot nodes; '.' and '_' mark
// explicit empty nodes (useful to pad); spaces are ignored. Successive rows
// alternate column parity (as in the picture above); FromASCII infers the
// parity from the first marker and rejects inconsistent pictures. The
// returned configuration is normalized, so indentation depth is irrelevant.
func FromASCII(art string) (Config, error) {
	lines := strings.Split(strings.Trim(art, "\n"), "\n")
	var nodes []grid.Coord
	parity := -1 // (col+row) mod 2 of the first marker
	for row, line := range lines {
		for col, ch := range line {
			switch ch {
			case 'o', 'O', '*', 'R':
			case '.', '_', ' ', '\t':
				continue
			default:
				return Config{}, fmt.Errorf("config: unexpected character %q at row %d col %d", ch, row, col)
			}
			if parity < 0 {
				parity = (col + row) % 2
			}
			if (col+row)%2 != parity {
				return Config{}, fmt.Errorf("config: marker at row %d col %d breaks grid parity", row, col)
			}
			// Rows go top to bottom with decreasing R; the column is the
			// x-element up to a global shift removed by normalization.
			r := -row
			x := col - parity
			nodes = append(nodes, grid.Coord{Q: (x - r) / 2, R: r})
		}
	}
	if len(nodes) == 0 {
		return Config{}, fmt.Errorf("config: picture contains no robots")
	}
	return New(nodes...).Normalize(), nil
}

// MustFromASCII is FromASCII for tests and fixtures; it panics on error.
func MustFromASCII(art string) Config {
	c, err := FromASCII(art)
	if err != nil {
		panic(err)
	}
	return c
}
