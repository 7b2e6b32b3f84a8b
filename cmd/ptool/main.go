// Command ptool is the paper's PTool: it measures read/write times for
// a sweep of sizes plus the eq. (1) constants on every storage resource
// of a freshly assembled environment, prints the figure 6–8 curves and
// Table 1, and optionally saves the performance database for the
// predict command.
//
// Usage:
//
//	ptool [-repeats n] [-save perf.json]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/metadb"
	"repro/internal/testbed"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ptool: ")
	repeats := flag.Int("repeats", 3, "trials per measurement point")
	save := flag.String("save", "", "write the performance database to this JSON file")
	flag.Parse()

	res, err := testbed.New(testbed.Dir(""), nil)
	if err != nil {
		log.Fatal(err)
	}
	meta := metadb.New()
	reports, err := res.Sweep(meta, *repeats)
	if err != nil {
		log.Fatal(err)
	}
	for _, rep := range reports {
		fmt.Println(rep.CurveString())
	}
	fmt.Println("Table 1: timings for file open, close, etc.")
	fmt.Println(meta.Table1String())

	if *save != "" {
		if err := meta.Save(*save); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("performance database saved to %s\n", *save)
	}
}
