// Package archcheck holds checks that compile the repository's packages for
// another architecture than the one the tests run on. It has no code of its
// own.
package archcheck
