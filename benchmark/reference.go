package main

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math"
	"time"
)

// refNominalS is a typical fastest time of the reference kernel on the
// machine the README's figures come from (a 2-vCPU guest on a shared
// 2.1 GHz Xeon host). Timings are reported at that speed: multiplied by
// refNominalS ÷ the kernel's fastest time in the same invocation.
const refNominalS = 0.020

// refText is the reference kernel's fixed input: about a megabyte of
// log-like text.
var refText = func() []byte {
	var b bytes.Buffer
	for i := 0; b.Len() < 1<<20; i++ {
		fmt.Fprintf(&b, "task %d on node-%d took %.3f s; ", i, i%31, math.Sqrt(float64(i)))
	}
	return b.Bytes()
}()

// timeReference times one run of the reference kernel, compress/flate
// over refText. The host this benchmark runs on changes speed by up to
// half for minutes at a time, most of all for branchy, memory-heavy code
// such as the simulator's. Deflate slows with it more closely than the
// other kernels tried (see README.md), and it is standard-library code
// that no change to the program can speed up.
func timeReference() float64 {
	start := time.Now()
	w, err := flate.NewWriter(io.Discard, 5)
	if err != nil {
		panic(err)
	}
	if _, err := w.Write(refText); err != nil {
		panic(err)
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return time.Since(start).Seconds()
}
