// GOOD: no clock reads; the mentions live in a comment (Instant) and a
// string (SystemTime), which the lexer blanks.
pub fn label() -> &'static str {
    "SystemTime is forbidden in the workspace"
}
