package core

// BuildOption is a functional construction option. Every builder takes them
// variadically: BuildORPKW(ds, k, WithParallelism(4), WithoutObs()).
type BuildOption func(*BuildOpts)

// WithParallelism caps the number of goroutines the build may use (see
// BuildOpts.Parallelism).
func WithParallelism(p int) BuildOption {
	return func(o *BuildOpts) { o.Parallelism = p }
}

// WithoutObs excludes the index from the metrics registry and tracing.
// Composite indexes use it on their inner structures so a user query is
// counted exactly once; callers can use it to build shadow indexes that
// stay invisible to monitoring.
func WithoutObs() BuildOption {
	return func(o *BuildOpts) { o.NoObs = true }
}

// resolveOpts folds a variadic option list into a BuildOpts value.
func resolveOpts(opts []BuildOption) BuildOpts {
	var o BuildOpts
	for _, f := range opts {
		if f != nil {
			f(&o)
		}
	}
	return o
}

// inner returns the options a composite index passes to the structures it
// builds internally: same parallelism, but untagged (the composite's own
// entry points carry the instrumentation).
func (o BuildOpts) inner() BuildOpts {
	o.NoObs = true
	return o
}

// famFor applies the NoObs switch to a family tag.
func (o BuildOpts) famFor(f family) family {
	if o.NoObs {
		return famNone
	}
	return f
}
