package bie

import "testing"

// CheckRigidWallLayout exposes checkRigidWallLayout to the external test
// package, which builds the registered walls.
func CheckRigidWallLayout(t *testing.T, s *Surface) { checkRigidWallLayout(t, s) }
