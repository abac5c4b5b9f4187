// Package onlytests is imported only by tests, so it is test code as a
// whole: its exports are not flagged although only tests call them.
package onlytests

// Helper is called only from lib_test.go.
func Helper() int { return 7 }
