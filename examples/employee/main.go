// Employee: the paper's running example (Example 3.1) end to end —
// attribute encoding of string domains through dictionaries, AVQ coding,
// index lookups, and the exact coded byte stream of Figure 3.3.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/table"
)

func main() {
	ctx := context.Background()
	// Raw rows hold strings; Section 3.1's attribute encoding maps them
	// to ordinals through order-preserving dictionaries.
	const n = 5000
	records := gen.EmployeeRecords(n, 1995)
	schema, deptDict, jobDict, err := gen.EmployeeSchema(n)
	if err != nil {
		log.Fatal(err)
	}
	tuples, err := gen.EncodeEmployees(records, deptDict, jobDict)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded %d employee rows; schema %s\n", len(tuples), schema)

	tbl, err := table.Create(schema,
		table.WithCodec(core.CodecAVQ),
		table.WithPageSize(2048),
		table.WithSecondaryAttrs(1, 4), // job title and employee number
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := tbl.BulkLoadContext(ctx, tuples); err != nil {
		log.Fatal(err)
	}
	st, err := tbl.StoreStats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AVQ store: %d blocks, %d coded bytes for %d raw bytes\n",
		st.Blocks, st.StreamBytes, st.RawDataBytes)

	// "Find every manager": a dictionary lookup turns the string predicate
	// into an ordinal range for the secondary index.
	managerCode, err := jobDict.Code("manager")
	if err != nil {
		log.Fatal(err)
	}
	rows, qs, err := tbl.SelectPointContext(ctx, 1, managerCode)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("managers: %d rows via %s path (%d blocks)\n", len(rows), qs.Strategy, qs.BlocksRead)
	for _, tu := range rows[:min(3, len(rows))] {
		rec, err := gen.DecodeEmployee(tu, deptDict, jobDict)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %-10s years=%-2d hours=%-2d emp#%d\n",
			rec.Dept, rec.Job, rec.Years, rec.Hours, rec.EmpNo)
	}

	// Point lookup by employee number through its secondary index: the
	// paper's sigma_{A5=34}(R) of Figure 4.5.
	rows, qs, err = tbl.SelectPointContext(ctx, 4, 34)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("employee #34: %d row via %s path (%d block)\n", len(rows), qs.Strategy, qs.BlocksRead)

	// Finally, the worked block of Example 3.2 / Figure 3.3: coding the
	// five-tuple block with the Example 3.1 schema yields exactly the
	// stream printed in the paper:
	//   3 08 36 39 35 | 3 08 57 | 2 04 05 23 | 2 51 56 29 | 2 01 59 37
	paperSchema := relation.MustSchema(
		relation.Domain{Name: "dept", Size: 8},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "hours", Size: 64},
		relation.Domain{Name: "empno", Size: 64},
	)
	block := []relation.Tuple{
		{3, 8, 32, 25, 19},
		{3, 8, 32, 34, 12},
		{3, 8, 36, 39, 35}, // the median representative
		{3, 9, 24, 32, 0},
		{3, 9, 26, 27, 37},
	}
	stream, err := core.EncodeBlock(core.CodecAVQ, paperSchema, block, nil)
	if err != nil {
		log.Fatal(err)
	}
	payload := stream[4 : len(stream)-4] // strip framing and checksum
	fmt.Printf("Figure 3.3 coded block payload: % d\n", payload)
	decoded, err := core.DecodeBlock(paperSchema, stream)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decoded losslessly back to %d tuples; first = %v\n", len(decoded), decoded[0])
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
