// Package testcase defines the test-case artifacts CFTCG produces: raw
// binary input streams (the fuzzer's native format) and the CSV rendering
// used to replay cases in Simulink — the paper implements exactly this
// converter "for easy use with its built-in coverage statistics function".
package testcase

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"cftcg/internal/model"
)

// Case is one generated test case: a binary byte stream that the fuzz
// driver splits into per-iteration tuples.
type Case struct {
	Data []byte
	// Found is when the case was emitted, relative to campaign start.
	Found time.Duration
	// Metric is the Iteration Difference Coverage metric of the input.
	Metric int
	// NewBranches counts the campaign-new branch slots this case hit.
	NewBranches int
}

// Suite is an ordered collection of cases for one model.
type Suite struct {
	Model  string
	Layout model.Layout
	Cases  []Case
}

// ToCSV renders one binary case as CSV: a header of inport names and one
// row per model iteration, with each field decoded in its declared type.
// Trailing bytes that cannot fill a whole tuple are discarded, exactly like
// the fuzz driver does.
func ToCSV(lay model.Layout, data []byte) string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)

	header := make([]string, 0, len(lay.Fields)+1)
	header = append(header, "step")
	for _, f := range lay.Fields {
		header = append(header, f.Name)
	}
	_ = w.Write(header)

	raw := make([]uint64, len(lay.Fields))
	row := make([]string, len(lay.Fields)+1)
	for i := 0; i < lay.Steps(data); i++ {
		lay.Decode(raw, data, i)
		row[0] = strconv.Itoa(i)
		for j, f := range lay.Fields {
			row[j+1] = formatValue(f.Type, raw[j])
		}
		_ = w.Write(row)
	}
	w.Flush()
	return sb.String()
}

func formatValue(dt model.DType, raw uint64) string {
	if dt.IsFloat() {
		return strconv.FormatFloat(model.DecodeFloat(dt, raw), 'g', -1, 64)
	}
	return strconv.FormatInt(model.DecodeInt(dt, raw), 10)
}

// FromCSV parses a CSV test case (as produced by ToCSV) back into the binary
// stream, validating the header against the layout.
func FromCSV(lay model.Layout, r io.Reader) ([]byte, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("testcase: parsing CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("testcase: empty CSV")
	}
	header := rows[0]
	if len(header) != len(lay.Fields)+1 {
		return nil, fmt.Errorf("testcase: CSV has %d columns, layout needs %d", len(header), len(lay.Fields)+1)
	}
	for i, f := range lay.Fields {
		if header[i+1] != f.Name {
			return nil, fmt.Errorf("testcase: CSV column %d is %q, layout expects %q", i+1, header[i+1], f.Name)
		}
	}
	data := make([]byte, 0, (len(rows)-1)*lay.TupleSize)
	tuple := make([]byte, lay.TupleSize)
	for rowIdx, row := range rows[1:] {
		if len(row) != len(lay.Fields)+1 {
			return nil, fmt.Errorf("testcase: row %d has %d columns", rowIdx+1, len(row))
		}
		for j, f := range lay.Fields {
			raw, err := parseValue(f.Type, row[j+1])
			if err != nil {
				return nil, fmt.Errorf("testcase: row %d field %s: %w", rowIdx+1, f.Name, err)
			}
			model.PutRaw(f.Type, tuple[f.Offset:], raw)
		}
		data = append(data, tuple...)
	}
	return data, nil
}

func parseValue(dt model.DType, s string) (uint64, error) {
	if dt.IsFloat() {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, err
		}
		return model.EncodeFloat(dt, f), nil
	}
	i, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return model.EncodeInt(dt, i), nil
}

// WriteSuiteCSV writes every case of the suite as one concatenated CSV
// stream with "# case N" comment separators.
func WriteSuiteCSV(w io.Writer, s *Suite) error {
	for i, c := range s.Cases {
		if _, err := fmt.Fprintf(w, "# case %d (metric=%d, found=%s)\n", i, c.Metric, c.Found.Round(time.Millisecond)); err != nil {
			return err
		}
		if _, err := io.WriteString(w, ToCSV(s.Layout, c.Data)); err != nil {
			return err
		}
	}
	return nil
}
