// Command tool is the corpus module's one binary.
package main

import (
	"fmt"

	"netsample/internal/analysis/testdata/src/unreached/internal/lib"
)

func main() {
	fmt.Println(lib.Replicate([]int{1, 2, 3}), lib.Run(lib.NewEveryOther(), 4), lib.Level(2), lib.Nap())
	report()
}

func report() {}

func idle() {} // want `func idle is reached by no main`
