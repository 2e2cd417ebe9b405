// Package archtest holds the repository's architecture rules as one test.
//
// Each rule says "the only uses of X are in Y" about the type-checked
// module: one sum-check half pair, one prover side of a connection, one
// kind table (which alone picks a verifier's summary families), one
// prover input, one GKR session per side, one split session, one
// sum-check table shape, one challenge schedule, one stored table, and
// no exported function or method under internal/ that only tests call.
// The test type-checks the module's non-test packages once, in import
// order, and reads its test files by syntax, resolving their
// package-qualified names through their imports. Every rule also has
// mutation rows: synthetic violating files, checked in memory, that the
// rule must report. The package has no non-test code besides this
// comment.
package archtest
