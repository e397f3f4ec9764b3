//! A minimal, self-contained Rust lexer for lint scanning.
//!
//! Produces a flat token stream that is **comment-, string- and
//! attribute-aware**: comments become [`TokenKind::Comment`] tokens (so a
//! `HashMap` mentioned in prose never trips a lint, while a `// SAFETY:`
//! comment stays findable), string/char literals become single
//! [`TokenKind::Literal`] tokens (a `"{"` in a format string cannot
//! unbalance brace matching), and `#[cfg(test)]`-gated items can be
//! elided wholesale with `elide_cfg_test` so test-only code is exempt
//! from production-path lints.
//!
//! This is deliberately *not* a parser: lints match small token
//! sequences (`Instant :: now`, `. unwrap ( )`) plus two structural
//! helpers — attribute groups and function body spans found by brace
//! matching.  That is exactly enough to enforce the workspace's
//! invariants without an external syntax crate (the build is
//! offline-vendored).

/// The coarse classification of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `unsafe`, `HashMap`, ...).
    Ident,
    /// A single punctuation character (`{`, `:`, `#`, ...).
    Punct,
    /// A string, raw string, byte string, char or numeric literal.
    Literal,
    /// A line (`//`) or block (`/* */`) comment, text included.
    Comment,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The token's verbatim text (for comments and literals, the whole
    /// lexeme including delimiters).
    pub text: String,
    /// 1-based line on which the token starts.
    pub line: u32,
}

impl Token {
    fn new(kind: TokenKind, text: impl Into<String>, line: u32) -> Self {
        Token {
            kind,
            text: text.into(),
            line,
        }
    }

    /// `true` if this is an identifier with exactly the given text.
    pub(crate) fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// `true` if this is a punctuation token with exactly the given text.
    pub(crate) fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }
}

/// Lexes Rust source into a token stream.  Never fails: unterminated
/// constructs simply run to end of input (good enough for linting real,
/// compiling source).
pub(crate) fn lex(src: &str) -> Vec<Token> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also covers `///` and `//!` doc comments).
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            out.push(Token::new(TokenKind::Comment, text, line));
            continue;
        }
        // Block comment, nested per Rust rules.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let start = i;
            let start_line = line;
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            let text: String = chars[start..i].iter().collect();
            out.push(Token::new(TokenKind::Comment, text, start_line));
            continue;
        }
        // Raw strings: r"...", r#"..."#, br"...", br#"..."# etc.
        if c == 'r' || (c == 'b' && chars.get(i + 1) == Some(&'r')) {
            let mut j = i + if c == 'b' { 2 } else { 1 };
            let mut hashes = 0usize;
            while chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if chars.get(j) == Some(&'"') {
                let start = i;
                let start_line = line;
                j += 1;
                // Scan for `"` followed by `hashes` hash marks.
                'raw: while j < chars.len() {
                    if chars[j] == '\n' {
                        line += 1;
                        j += 1;
                        continue;
                    }
                    if chars[j] == '"' {
                        let mut k = 0usize;
                        while k < hashes && chars.get(j + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            j += 1 + hashes;
                            break 'raw;
                        }
                    }
                    j += 1;
                }
                let text: String = chars[start..j.min(chars.len())].iter().collect();
                out.push(Token::new(TokenKind::Literal, text, start_line));
                i = j;
                continue;
            }
            // Not a raw string: fall through to identifier handling.
        }
        // Plain and byte strings.
        if c == '"' || (c == 'b' && chars.get(i + 1) == Some(&'"')) {
            let start = i;
            let start_line = line;
            i += if c == 'b' { 2 } else { 1 };
            while i < chars.len() {
                match chars[i] {
                    '\\' => {
                        // A `\` line continuation still ends a line.
                        if chars.get(i + 1) == Some(&'\n') {
                            line += 1;
                        }
                        i += 2;
                    }
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            let text: String = chars[start..i.min(chars.len())].iter().collect();
            out.push(Token::new(TokenKind::Literal, text, start_line));
            continue;
        }
        // Char literal or lifetime.
        if c == '\'' {
            let next = chars.get(i + 1).copied();
            let is_ident_start = next.is_some_and(|n| n.is_alphanumeric() || n == '_');
            if is_ident_start && chars.get(i + 2) != Some(&'\'') {
                // Lifetime (`'a`, `'static`): skip it; lints never need one.
                i += 1;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                continue;
            }
            // Char literal: `'x'`, `'\n'`, `'\''`, `'{'`.
            let start = i;
            i += 1;
            if chars.get(i) == Some(&'\\') {
                i += 2;
            } else {
                i += 1;
            }
            if chars.get(i) == Some(&'\'') {
                i += 1;
            }
            let text: String = chars[start..i.min(chars.len())].iter().collect();
            out.push(Token::new(TokenKind::Literal, text, line));
            continue;
        }
        // Identifier or keyword.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            out.push(Token::new(TokenKind::Ident, text, line));
            continue;
        }
        // Number: digits/underscores, one fraction part, then any
        // alphanumeric suffix (`1_000`, `1.5e6`, `0xFF`, `10u64`).
        if c.is_ascii_digit() {
            let start = i;
            while i < chars.len() {
                let d = chars[i];
                // `.` joins the number only when a digit follows, so range
                // expressions like `0..n` are not swallowed.
                let continues = d.is_alphanumeric()
                    || d == '_'
                    || (d == '.' && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit()));
                if !continues {
                    break;
                }
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            out.push(Token::new(TokenKind::Literal, text, line));
            continue;
        }
        // Anything else is single-character punctuation.
        out.push(Token::new(TokenKind::Punct, c.to_string(), line));
        i += 1;
    }
    out
}

/// Returns the index of the token closing the bracket group opened at
/// `open` (which must be `(`, `[` or `{`), or `tokens.len()` if
/// unbalanced.  Counts all three bracket kinds together, which is safe
/// because literals and comments are opaque single tokens.
pub(crate) fn matching_close(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
    }
    tokens.len()
}

/// Removes every item gated behind a `#[cfg(test)]`-style attribute
/// (an attribute naming `cfg` and `test` but not `not`), including the
/// attribute itself, any stacked attributes after it, and the item's
/// whole body.  Everything else passes through unchanged.
pub(crate) fn elide_cfg_test(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let close = matching_close(tokens, i + 1);
            let attr = &tokens[i + 1..close.min(tokens.len())];
            let has = |name: &str| attr.iter().any(|t| t.is_ident(name));
            if has("cfg") && has("test") && !has("not") {
                i = close + 1;
                // Skip stacked attributes and comments between the cfg
                // gate and the item it gates.
                loop {
                    while tokens.get(i).is_some_and(|t| t.kind == TokenKind::Comment) {
                        i += 1;
                    }
                    if tokens.get(i).is_some_and(|t| t.is_punct("#"))
                        && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))
                    {
                        i = matching_close(tokens, i + 1) + 1;
                    } else {
                        break;
                    }
                }
                // Skip the gated item: through the first `;` at bracket
                // depth zero, or through its complete `{...}` body.
                let mut depth = 0i64;
                while i < tokens.len() {
                    let t = &tokens[i];
                    if t.kind == TokenKind::Punct {
                        match t.text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => {
                                depth -= 1;
                                if depth <= 0 && t.text == "}" {
                                    i += 1;
                                    break;
                                }
                            }
                            ";" if depth == 0 => {
                                i += 1;
                                break;
                            }
                            _ => {}
                        }
                    }
                    i += 1;
                }
                continue;
            }
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// A function found in the token stream, with the token-index span of
/// its brace-delimited body (inclusive of both braces).
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Index of the body's opening `{` token.
    pub body_start: usize,
    /// Index of the body's closing `}` token.
    pub body_end: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// Finds every `fn name ... { ... }` in the stream, including nested
/// functions.  Bodiless declarations (trait methods ending in `;`) are
/// skipped; `fn`-pointer types never match because the next token is not
/// an identifier.
pub(crate) fn fn_spans(tokens: &[Token]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") {
            if let Some(name_tok) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) {
                // Walk the signature to the body `{` (or `;`) at depth 0.
                let mut j = i + 2;
                let mut depth = 0i64;
                let mut body_start = None;
                while j < tokens.len() {
                    let t = &tokens[j];
                    if t.kind == TokenKind::Punct {
                        match t.text.as_str() {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "{" if depth == 0 => {
                                body_start = Some(j);
                                break;
                            }
                            ";" if depth == 0 => break,
                            _ => {}
                        }
                    }
                    j += 1;
                }
                if let Some(start) = body_start {
                    let end = matching_close(tokens, start);
                    out.push(FnSpan {
                        name: name_tok.text.clone(),
                        body_start: start,
                        body_end: end,
                        line: tokens[i].line,
                    });
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(tokens: &[Token]) -> Vec<&str> {
        tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect()
    }

    #[test]
    fn comments_and_strings_are_opaque() {
        let src = r##"
            // a HashMap in prose
            /* block HashMap /* nested */ still comment */
            let s = "HashMap { unbalanced";
            let r = r#"raw "quoted" HashMap"#;
            let c = '{';
            let real = HashMap::new();
        "##;
        let toks = lex(src);
        let real_idents = idents(&toks);
        assert_eq!(
            real_idents.iter().filter(|&&t| t == "HashMap").count(),
            1,
            "only the real code HashMap is an identifier: {real_idents:?}"
        );
        let comments: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Comment)
            .collect();
        assert_eq!(comments.len(), 2);
        assert!(comments[1].text.contains("nested"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> &'a str { x } let c = 'x';");
        assert!(toks.iter().any(|t| t.is_ident("str")));
        let lits: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .collect();
        assert_eq!(lits.len(), 1);
        assert_eq!(lits[0].text, "'x'");
    }

    #[test]
    fn numbers_do_not_swallow_range_operators() {
        let toks = lex("for i in 0..self.entries.len() { x += 1.5e3; }");
        assert!(toks.iter().any(|t| t.is_ident("entries")));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Literal && t.text == "1.5e3"));
    }

    #[test]
    fn lines_are_tracked() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
        // A `\` line continuation inside a string still ends a line.
        let toks = lex("\"one \\\n   two\"\nnext");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 3]);
    }

    #[test]
    fn elides_cfg_test_items() {
        let src = r#"
            fn keep() { used(); }
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() { HashMap::new(); }
            }
            #[cfg(not(test))]
            fn also_keep() {}
            #[cfg(test)]
            use std::collections::HashSet;
            fn tail() {}
        "#;
        let toks = elide_cfg_test(&lex(src));
        let names = idents(&toks);
        assert!(names.contains(&"keep"));
        assert!(names.contains(&"also_keep"));
        assert!(names.contains(&"tail"));
        assert!(!names.contains(&"HashMap"));
        assert!(!names.contains(&"HashSet"));
    }

    #[test]
    fn finds_function_bodies() {
        let src = r#"
            impl Foo {
                pub fn hot(&mut self, x: [u8; 4]) -> Option<u32> {
                    if x[0] > 0 { Some(1) } else { None }
                }
                fn other(&self) {}
            }
            trait T { fn decl(&self); }
        "#;
        let toks = lex(src);
        let spans = fn_spans(&toks);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["hot", "other"]);
        let hot = &spans[0];
        let body = &toks[hot.body_start..=hot.body_end];
        assert!(body.iter().any(|t| t.is_ident("Some")));
        assert!(!body.iter().any(|t| t.is_ident("other")));
    }
}
