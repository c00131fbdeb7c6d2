package core

import "kwsc/internal/obs"

// BuildOption is a functional construction option. The plain builders are
// variadic — BuildORPKW(ds, k, WithParallelism(4), WithTracer(t)) — which
// supersedes the Build*With(ds, k, BuildOpts{...}) pairs; those remain as
// thin wrappers.
type BuildOption func(*BuildOpts)

// WithParallelism caps the number of goroutines the build may use (see
// BuildOpts.Parallelism).
func WithParallelism(p int) BuildOption {
	return func(o *BuildOpts) { o.Parallelism = p }
}

// WithTracer installs a per-index tracer: every query span this index emits
// goes to t in addition to any process-wide tracer (obs.SetTracer).
func WithTracer(t obs.Tracer) BuildOption {
	return func(o *BuildOpts) { o.Tracer = t }
}

// WithoutObs excludes the index from the metrics registry and tracing.
// Composite indexes use it on their inner structures so a user query is
// counted exactly once; callers can use it to build shadow indexes that
// stay invisible to monitoring.
func WithoutObs() BuildOption {
	return func(o *BuildOpts) { o.NoObs = true }
}

// With returns a copy of o with opts applied.
func (o BuildOpts) With(opts ...BuildOption) BuildOpts {
	for _, f := range opts {
		if f != nil {
			f(&o)
		}
	}
	return o
}

// resolveOpts folds a variadic option list into a BuildOpts value.
func resolveOpts(opts []BuildOption) BuildOpts {
	return BuildOpts{}.With(opts...)
}

// inner returns the options a composite index passes to the structures it
// builds internally: same parallelism, but untagged (the composite's own
// entry points carry the instrumentation) and without the per-index tracer.
func (o BuildOpts) inner() BuildOpts {
	o.NoObs = true
	o.Tracer = nil
	return o
}

// famFor applies the NoObs switch to a family tag.
func (o BuildOpts) famFor(f family) family {
	if o.NoObs {
		return famNone
	}
	return f
}
