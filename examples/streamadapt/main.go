// streamadapt runs the paper's adaptive stream processing scenario (§5.4):
// the Linear Road SegTollS query over a bursty stream with drifting hot
// segments, re-optimized incrementally at every one-second split point.
package main

import (
	"fmt"
	"log"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/linearroad"
	"repro/internal/relalg"
)

func main() {
	gen := linearroad.NewGen(7, 100)
	win := linearroad.NewWindows()
	ctl, err := aqp.NewController(aqp.Config{
		Query:      linearroad.SegTollS(),
		Cat:        win.Catalog(),
		Params:     cost.DefaultParams(),
		Space:      relalg.DefaultSpace(),
		Pruning:    core.PruneAll,
		Strategy:   aqp.Incremental,
		Cumulative: false, // fit the plan to the current window
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("slice  reopt      exec        rows  plan")
	for s := int64(0); s < 30; s++ {
		win.Ingest(gen.Slice(s, s+1))
		win.Materialize()
		res, err := ctl.RunSlice(nil)
		if err != nil {
			log.Fatal(err)
		}
		marker := ""
		if res.Switched {
			marker = "  <- plan switch"
		}
		fmt.Printf("%5d  %-9v  %-10v  %4d  %s%s\n",
			s, res.Reopt.Round(1000), res.Exec.Round(1000), res.Rows,
			res.Plan.Signature(), marker)
	}
}
