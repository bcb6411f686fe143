//! OpenQASM 2.0 subset parser and writer.
//!
//! The paper's toolchain consumes flattened quantum assembly produced by
//! ScaffCC/QISKit; this module provides the equivalent textual interface so
//! circuits can be exchanged with external front-ends. Supported constructs:
//!
//! * `OPENQASM 2.0;` header and `include` lines (ignored),
//! * a single or multiple `qreg` declarations (concatenated into one index
//!   space) and `creg` declarations (ignored),
//! * gate applications for the built-in gate set (`h`, `x`, `y`, `z`, `s`,
//!   `sdg`, `t`, `tdg`, `rx(θ)`, `ry(θ)`, `rz(θ)`, `u1(θ)`, `cx`, `cz`,
//!   `cu1(θ)`, `swap`, `iswap`, `rzz(θ)`, `ccx`, `cswap`, `id`),
//! * `barrier` and `measure` statements (parsed and ignored),
//! * `//` comments.
//!
//! Angle expressions may use `pi`, decimal literals, unary minus, `*`, `/` and
//! parentheses — enough for machine-generated QASM.

use crate::circuit::Circuit;
use crate::gate::Gate;
use std::collections::HashMap;
use std::fmt;

/// Error produced when parsing QASM text.
#[derive(Debug, Clone, PartialEq)]
pub struct QasmError {
    /// 1-based line number where the error occurred.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "qasm parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for QasmError {}

fn err(line: usize, message: impl Into<String>) -> QasmError {
    QasmError {
        line,
        message: message.into(),
    }
}

/// Parses OpenQASM 2.0 text into a [`Circuit`].
///
/// # Errors
///
/// Returns a [`QasmError`] describing the first offending line when the text
/// uses unsupported syntax, unknown gates or registers, or malformed operands.
pub fn parse(text: &str) -> Result<Circuit, QasmError> {
    let mut registers: Vec<(String, usize)> = Vec::new(); // (name, size), offsets are cumulative
    let mut reg_offset: HashMap<String, usize> = HashMap::new();
    let mut total_qubits = 0usize;
    let mut pending: Vec<(usize, String)> = Vec::new(); // statements after preprocessing

    for (lineno, raw_line) in text.lines().enumerate() {
        let line = raw_line.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        // A line can contain several `;`-terminated statements.
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            pending.push((lineno + 1, stmt.to_string()));
        }
    }

    let mut circuit_statements: Vec<(usize, String)> = Vec::new();
    for (lineno, stmt) in pending {
        let lower = stmt.to_lowercase();
        if lower.starts_with("openqasm") || lower.starts_with("include") {
            continue;
        }
        if lower.starts_with("qreg") {
            let (name, size) = parse_reg_decl(&stmt, lineno)?;
            if reg_offset.contains_key(&name) {
                return Err(err(lineno, format!("register '{name}' declared twice")));
            }
            reg_offset.insert(name.clone(), total_qubits);
            registers.push((name, size));
            total_qubits = total_qubits
                .checked_add(size)
                .ok_or_else(|| err(lineno, "total register size overflows"))?;
            continue;
        }
        if lower.starts_with("creg") || lower.starts_with("barrier") || lower.starts_with("measure")
        {
            continue;
        }
        circuit_statements.push((lineno, stmt));
    }

    let mut circuit = Circuit::new(total_qubits);
    for (lineno, stmt) in circuit_statements {
        let (gate, qubits) = parse_gate_statement(&stmt, lineno, &reg_offset, &registers)?;
        for (i, q) in qubits.iter().enumerate() {
            if *q >= total_qubits {
                return Err(err(lineno, format!("qubit index {q} out of range")));
            }
            if qubits[..i].contains(q) {
                return Err(err(
                    lineno,
                    format!("gate {} repeats qubit {q}", gate.name()),
                ));
            }
        }
        circuit.push(gate, &qubits);
    }
    Ok(circuit)
}

fn parse_reg_decl(stmt: &str, line: usize) -> Result<(String, usize), QasmError> {
    // qreg name[size]
    let rest = stmt
        .strip_prefix("qreg")
        .or_else(|| stmt.strip_prefix("QREG"))
        .ok_or_else(|| err(line, "malformed register declaration"))?
        .trim();
    let open = rest
        .find('[')
        .ok_or_else(|| err(line, "missing '[' in qreg"))?;
    let close = rest[open..]
        .find(']')
        .map(|i| open + i)
        .ok_or_else(|| err(line, "missing ']' after '[' in qreg"))?;
    let name = rest[..open].trim().to_string();
    let size: usize = rest[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| err(line, "register size is not an integer"))?;
    if name.is_empty() {
        return Err(err(line, "empty register name"));
    }
    Ok((name, size))
}

fn parse_gate_statement(
    stmt: &str,
    line: usize,
    reg_offset: &HashMap<String, usize>,
    registers: &[(String, usize)],
) -> Result<(Gate, Vec<usize>), QasmError> {
    // Split "name(params) operands" or "name operands".
    let (head, operands) = match stmt.find(|c: char| c.is_whitespace()) {
        Some(pos) if !stmt[..pos].contains('(') || stmt[..pos].contains(')') => {
            (stmt[..pos].trim(), stmt[pos..].trim())
        }
        _ => {
            // The gate name may contain '(' with spaces inside the params; find
            // the closing ')' first.
            if let Some(close) = stmt.find(')') {
                (stmt[..=close].trim(), stmt[close + 1..].trim())
            } else {
                match stmt.find(|c: char| c.is_whitespace()) {
                    Some(pos) => (stmt[..pos].trim(), stmt[pos..].trim()),
                    None => return Err(err(line, "statement has no operands")),
                }
            }
        }
    };

    let (name, params) = match head.find('(') {
        Some(open) => {
            let close = head[open..]
                .rfind(')')
                .map(|i| open + i)
                .ok_or_else(|| err(line, "unbalanced parenthesis in gate parameters"))?;
            let name = head[..open].trim().to_lowercase();
            let params: Result<Vec<f64>, QasmError> = head[open + 1..close]
                .split(',')
                .map(|p| parse_angle(p.trim(), line))
                .collect();
            (name, params?)
        }
        None => (head.to_lowercase(), Vec::new()),
    };

    let qubits: Result<Vec<usize>, QasmError> = operands
        .split(',')
        .map(|op| parse_operand(op.trim(), line, reg_offset, registers))
        .collect();
    let qubits = qubits?;

    let need = |k: usize| -> Result<(), QasmError> {
        if params.len() != k {
            Err(err(line, format!("gate {name} expects {k} parameter(s)")))
        } else {
            Ok(())
        }
    };

    let gate = match name.as_str() {
        "id" | "i" => Gate::I,
        "x" => Gate::X,
        "y" => Gate::Y,
        "z" => Gate::Z,
        "h" => Gate::H,
        "s" => Gate::S,
        "sdg" => Gate::Sdg,
        "t" => Gate::T,
        "tdg" => Gate::Tdg,
        "rx" => {
            need(1)?;
            Gate::Rx(params[0])
        }
        "ry" => {
            need(1)?;
            Gate::Ry(params[0])
        }
        "rz" => {
            need(1)?;
            Gate::Rz(params[0])
        }
        "u1" | "p" | "phase" => {
            need(1)?;
            Gate::Phase(params[0])
        }
        "cx" | "cnot" => Gate::Cnot,
        "cz" => Gate::Cz,
        "cu1" | "cp" | "cphase" => {
            need(1)?;
            Gate::CPhase(params[0])
        }
        "swap" => Gate::Swap,
        "iswap" => Gate::ISwap,
        "sqiswap" => Gate::SqrtISwap,
        "rzz" => {
            need(1)?;
            Gate::Rzz(params[0])
        }
        "rxy" => {
            need(1)?;
            Gate::Rxy(params[0])
        }
        "ccx" | "toffoli" => Gate::Toffoli,
        "cswap" | "fredkin" => Gate::Fredkin,
        other => return Err(err(line, format!("unknown gate '{other}'"))),
    };

    if gate.arity() != qubits.len() {
        return Err(err(
            line,
            format!(
                "gate {} expects {} operand(s), got {}",
                gate.name(),
                gate.arity(),
                qubits.len()
            ),
        ));
    }
    Ok((gate, qubits))
}

fn parse_operand(
    op: &str,
    line: usize,
    reg_offset: &HashMap<String, usize>,
    registers: &[(String, usize)],
) -> Result<usize, QasmError> {
    if let Some(open) = op.find('[') {
        let close = op[open..]
            .find(']')
            .map(|i| open + i)
            .ok_or_else(|| err(line, format!("missing ']' after '[' in operand '{op}'")))?;
        let name = op[..open].trim();
        let idx: usize = op[open + 1..close]
            .trim()
            .parse()
            .map_err(|_| err(line, format!("bad qubit index in '{op}'")))?;
        let offset = reg_offset
            .get(name)
            .ok_or_else(|| err(line, format!("unknown register '{name}'")))?;
        let size = registers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .unwrap_or(0);
        if idx >= size {
            return Err(err(
                line,
                format!("index {idx} out of range for register '{name}'"),
            ));
        }
        Ok(offset + idx)
    } else {
        // Bare integer operand (non-standard but convenient).
        op.parse()
            .map_err(|_| err(line, format!("cannot parse operand '{op}'")))
    }
}

/// Parses a simple angle expression: numbers, `pi`, unary minus, `*`, `/`.
fn parse_angle(expr: &str, line: usize) -> Result<f64, QasmError> {
    let cleaned = expr.replace(' ', "");
    if cleaned.is_empty() {
        return Err(err(line, "empty angle expression"));
    }
    parse_angle_expr(&cleaned, 0).ok_or_else(|| err(line, format!("cannot parse angle '{expr}'")))
}

/// Nesting bound of [`parse_angle_expr`]: every sign, parenthesis pair and
/// operator recurses once, so outside input must not drive the recursion
/// depth (and the stack) with its length.
const MAX_ANGLE_DEPTH: usize = 64;

fn parse_angle_expr(s: &str, depth: usize) -> Option<f64> {
    if depth > MAX_ANGLE_DEPTH {
        return None;
    }
    let depth = depth + 1;
    // Handle unary minus.
    if let Some(rest) = s.strip_prefix('-') {
        return parse_angle_expr(rest, depth).map(|v| -v);
    }
    if let Some(rest) = s.strip_prefix('+') {
        return parse_angle_expr(rest, depth);
    }
    // One scan finds the last '*' or '/' outside parentheses (the operators
    // are left-associative, so the last one binds loosest) and where the
    // parenthesis opened by the first character closes.
    let mut level = 0usize;
    let mut split = None;
    let mut first_close = None;
    for (i, c) in s.char_indices() {
        match c {
            '(' => level += 1,
            ')' => {
                level = level.checked_sub(1)?;
                if level == 0 && first_close.is_none() {
                    first_close = Some(i);
                }
            }
            '*' | '/' if level == 0 => split = Some((i, c)),
            _ => {}
        }
    }
    if level != 0 {
        return None;
    }
    if let Some((i, op)) = split {
        let lhs = parse_angle_expr(&s[..i], depth)?;
        let rhs = parse_angle_expr(&s[i + 1..], depth)?;
        return Some(if op == '*' { lhs * rhs } else { lhs / rhs });
    }
    // Strip a parenthesis pair only when it wraps the whole expression.
    if s.starts_with('(') && first_close == Some(s.len() - 1) {
        return parse_angle_expr(&s[1..s.len() - 1], depth);
    }
    if s.eq_ignore_ascii_case("pi") {
        return Some(std::f64::consts::PI);
    }
    s.parse().ok()
}

/// Serializes a circuit to OpenQASM 2.0 text.
///
/// Multi-qubit gates beyond the OpenQASM built-ins are emitted with this
/// crate's spellings (`iswap`, `rzz`, `rxy`) which [`parse`] understands.
pub fn write(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    out.push_str(&format!("qreg q[{}];\n", circuit.n_qubits()));
    for inst in circuit.instructions() {
        let operands: Vec<String> = inst.qubits.iter().map(|q| format!("q[{q}]")).collect();
        let name = match inst.gate.parameter() {
            Some(p) => format!("{}({:.12})", inst.gate.name(), p),
            None => inst.gate.name().to_string(),
        };
        out.push_str(&format!("{} {};\n", name, operands.join(",")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn parse_simple_program() {
        let text = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[3];
            creg c[3];
            h q[0];
            cx q[0],q[1];
            rz(pi/2) q[2];
            ccx q[0],q[1],q[2];
            measure q[0] -> c[0];
        "#;
        let c = parse(text).expect("parse ok");
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.len(), 4);
        assert_eq!(c.instructions()[0].gate, Gate::H);
        assert_eq!(c.instructions()[1].qubits, vec![0, 1]);
        match c.instructions()[2].gate {
            Gate::Rz(t) => assert!((t - PI / 2.0).abs() < 1e-12),
            ref g => panic!("expected rz, got {g:?}"),
        }
        assert_eq!(c.instructions()[3].gate, Gate::Toffoli);
    }

    #[test]
    fn parse_multiple_registers() {
        let text = "qreg a[2]; qreg b[2]; cx a[1],b[0];";
        let c = parse(text).unwrap();
        assert_eq!(c.n_qubits(), 4);
        assert_eq!(c.instructions()[0].qubits, vec![1, 2]);
    }

    #[test]
    fn parse_angle_expressions() {
        let text = "qreg q[1]; rx(-pi/4) q[0]; rz(2*pi) q[0]; ry(0.5) q[0]; u1(-0.25) q[0];";
        let c = parse(text).unwrap();
        match c.instructions()[0].gate {
            Gate::Rx(t) => assert!((t + PI / 4.0).abs() < 1e-12),
            _ => panic!(),
        }
        match c.instructions()[1].gate {
            Gate::Rz(t) => assert!((t - 2.0 * PI).abs() < 1e-12),
            _ => panic!(),
        }
        // Division is left-associative, and parenthesised operands parse.
        let text = "qreg q[1]; rz(pi/2/2) q[0]; rz(1/2/4) q[0]; rz((pi)*(2)) q[0];";
        let c = parse(text).unwrap();
        for (inst, want) in c.instructions().iter().zip([PI / 4.0, 0.125, 2.0 * PI]) {
            match inst.gate {
                Gate::Rz(t) => assert!((t - want).abs() < 1e-12, "{t} != {want}"),
                _ => panic!(),
            }
        }
    }

    #[test]
    fn unknown_gate_is_an_error() {
        let text = "qreg q[2]; frobnicate q[0];";
        let e = parse(text).unwrap_err();
        assert!(e.message.contains("unknown gate"));
    }

    #[test]
    fn out_of_range_index_is_an_error() {
        let text = "qreg q[2]; x q[5];";
        assert!(parse(text).is_err());
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let text = "qreg q[2]; cx q[0];";
        let e = parse(text).unwrap_err();
        assert!(e.message.contains("expects"));
    }

    #[test]
    fn roundtrip_through_writer() {
        let text = r#"
            qreg q[4];
            h q[0];
            rz(1.25) q[1];
            cx q[0],q[1];
            rzz(0.7) q[1],q[2];
            iswap q[2],q[3];
            swap q[0],q[3];
            t q[2];
        "#;
        let c = parse(text).unwrap();
        let emitted = write(&c);
        let reparsed = parse(&emitted).unwrap();
        assert_eq!(c.len(), reparsed.len());
        assert_eq!(c.n_qubits(), reparsed.n_qubits());
        for (a, b) in c.instructions().iter().zip(reparsed.instructions()) {
            assert_eq!(a.qubits, b.qubits);
            assert_eq!(a.gate.name(), b.gate.name());
        }
        // Semantics are preserved exactly.
        assert!(c.unitary().approx_eq(&reparsed.unitary(), 1e-12));
    }

    #[test]
    fn malformed_input_is_an_error_naming_its_line() {
        // Reversed brackets, a repeated qubit, register sizes overflowing
        // `usize`, a redeclared register and angle nesting past
        // `MAX_ANGLE_DEPTH`: each is a `QasmError` on its own line.
        let cases = [
            "qreg q]2[;",
            "x q]0[;",
            "rx)1( q[0];",
            "qreg q[2]; cx q[0],q[0];",
            "qreg a[18446744073709551615]; qreg b[1];",
            "qreg q[2]; qreg q[3];",
        ];
        let deep = format!(
            "qreg q[1]; rx({}1{}) q[0];",
            "-(".repeat(40),
            ")".repeat(40)
        );
        for case in cases.into_iter().chain([deep.as_str()]) {
            let text = format!("OPENQASM 2.0;\n{case}\n");
            let e = parse(&text).expect_err(case);
            assert_eq!(e.line, 2, "{case}: {e}");
        }
        let e = parse("qreg q[2]; cx q[0],q[0];").unwrap_err();
        assert!(e.message.contains("repeats qubit 0"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "// a comment\n\nqreg q[1];\nx q[0]; // trailing\n";
        let c = parse(text).unwrap();
        assert_eq!(c.len(), 1);
    }
}
