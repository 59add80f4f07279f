// Package kit is the gate's fixture library: every export here is used, an
// interface or dynamic method, used by the consumer module only, or marked
// as a test oracle.
package kit

import "errors"

// Used is called by cmd/app.
func Used() int { return 1 }

// Shape is satisfied by Square; cmd/app calls Area only through it.
type Shape interface{ Area() float64 }

// Square is a Shape.
type Square struct{ Side float64 }

// Area implements Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Err wraps a cause.
type Err struct{ cause error }

// NewErr returns an Err wrapping a fixed cause.
func NewErr() error { return &Err{cause: errors.New("cause")} }

// Error implements error.
func (e *Err) Error() string { return "kit: " + e.cause.Error() }

// Unwrap exposes the cause to errors.Is and errors.As.
func (e *Err) Unwrap() error { return e.cause }

// ForConsumer is used only by the consumer module.
func ForConsumer() string { return "consumer" }

// Reference is the straightforward form a test compares Used against.
//
//hdc:oracle
func Reference() int { return 1 }
