package steady

// Unexported pieces of SolveDirect, for the dense-oracle regression test.
var (
	DirectProblem = directProblem
	CertifyDirect = certifyDirect
)
