package blas

// RunBodies runs a subtest under every micro-kernel body this build and CPU
// can run, for tests outside the package.
var RunBodies = runBodies
