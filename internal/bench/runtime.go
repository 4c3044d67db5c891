package bench

import (
	"fmt"
	"runtime"
	"time"

	"distgnn/internal/parallel"
	"distgnn/internal/spmm"
	"distgnn/internal/tensor"
)

// AblationWorkers sweeps the parallel runtime's worker-pool size over the
// two hot kernels — the aggregation primitive and the dense matmul — the
// in-process analogue of the paper's OMP_NUM_THREADS scaling runs.
func AblationWorkers(opt Options) error {
	ds, err := loadDataset("reddit-sim", opt.scale())
	if err != nil {
		return err
	}
	iters := opt.epochs(5)
	maxW := runtime.GOMAXPROCS(0)
	sweep := []int{1}
	for w := 2; w < maxW; w *= 2 {
		sweep = append(sweep, w)
	}
	if maxW > 1 {
		sweep = append(sweep, maxW)
	}

	d := ds.Features.Cols
	a := tensor.New(2048, d)
	bm := tensor.New(d, 64)
	c := tensor.New(2048, 64)

	t := &table{header: []string{"workers", "AP time", "matmul time"}}
	prev := parallel.Workers()
	defer parallel.Configure(parallel.Config{Workers: prev}) // restore the caller's pool
	for _, w := range sweep {
		parallel.Configure(parallel.Config{Workers: w})
		ap, err := timeAggKernel(ds, spmm.DefaultOptions(8), iters)
		if err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < 4*iters; i++ {
			tensor.MatMul(c, a, bm)
		}
		mm := time.Since(start) / time.Duration(4*iters)
		t.add(fmt.Sprint(w), ap.String(), mm.String())
	}
	t.write(opt.Out)
	return nil
}
