package pipeline

// spinYields is how many runtime.Gosched yields a spin-then-park wait
// (ring full/empty) spends before it parks. The budget only decides HOW
// a wait ends (spin vs park), never what value is read afterwards, so it
// cannot perturb the pipeline's output.
const spinYields = 32

// spinState is one waiter's spin budget, owned by the goroutine that
// waits with it. Its zero value is the test hook: every wait parks
// immediately, which is how the stress tests hammer the park/wake
// handshake.
type spinState struct {
	budget int
}

func newSpinState() spinState { return spinState{budget: spinYields} }
