// Package unreached is the corpus module's facade: the one package an
// importer outside the module could name. Every exported name here is a
// root, and so is every exported method of a type it exposes.
package unreached

import "netsample/internal/analysis/testdata/src/unreached/internal/lib"

// Meter is aliased, so an importer can call its exported methods.
type Meter = lib.Meter

// NewGauge returns a type the facade never names; its exported methods
// are callable all the same.
func NewGauge() *lib.Gauge { return lib.NewGauge() }

func unexportedInFacade() {} // want `func unexportedInFacade is reached by no main`
