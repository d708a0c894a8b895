"""Serialize an AST back to Verilog source text.

Round-tripping (parse → write → parse) is exercised heavily in the tests; the
writer emits canonical, readable Verilog-2001.
"""

from repro.verilog import ast_nodes as ast

_INDENT = "  "


def write_source(source):
    """Render a :class:`SourceFile` as Verilog text."""
    return "\n\n".join(write_module(module) for module in source.modules) + "\n"


def write_module(module):
    """Render a single :class:`Module` as Verilog text."""
    lines = []
    header = f"module {module.name}"
    if module.params:
        params = ", ".join(
            f"parameter {p.name} = {write_expr(p.value)}" for p in module.params
        )
        header += f" #({params})"
    ports = ", ".join(_port_text(port) for port in module.ports)
    header += f" ({ports});"
    lines.append(header)
    for item in module.items:
        lines.extend(_item_lines(item, 1))
    lines.append("endmodule")
    return "\n".join(lines)


def _port_text(port):
    parts = [port.direction or "input"]
    if port.is_reg:
        parts.append("reg")
    if port.signed:
        parts.append("signed")
    if port.width is not None:
        parts.append(f"[{write_expr(port.width.msb)}:{write_expr(port.width.lsb)}]")
    parts.append(port.name)
    return " ".join(parts)


def _item_lines(item, depth):
    pad = _INDENT * depth
    if isinstance(item, ast.NetDecl):
        width = ""
        if item.width is not None:
            width = f" [{write_expr(item.width.msb)}:{write_expr(item.width.lsb)}]"
        signed = " signed" if item.signed else ""
        return [f"{pad}{item.kind}{signed}{width} {', '.join(item.names)};"]
    if isinstance(item, ast.ParamDecl):
        keyword = "localparam" if item.local else "parameter"
        return [f"{pad}{keyword} {item.name} = {write_expr(item.value)};"]
    if isinstance(item, ast.Assign):
        return [f"{pad}assign {write_expr(item.lhs)} = {write_expr(item.rhs)};"]
    if isinstance(item, ast.GateInstance):
        args = ", ".join(write_expr(a) for a in item.args)
        return [f"{pad}{item.gate} {item.name} ({args});"]
    if isinstance(item, ast.ModuleInstance):
        return _instance_lines(item, depth)
    if isinstance(item, ast.Always):
        return _always_lines(item, depth)
    if isinstance(item, ast.Initial):
        return [f"{pad}initial"] + _statement_lines(item.statement, depth + 1)
    raise TypeError(f"cannot write module item of type {type(item).__name__}")


def _instance_lines(item, depth):
    pad = _INDENT * depth
    text = f"{pad}{item.module}"
    if item.param_overrides:
        overrides = ", ".join(_connection_text(c) for c in item.param_overrides)
        text += f" #({overrides})"
    connections = ", ".join(_connection_text(c) for c in item.connections)
    return [f"{text} {item.name} ({connections});"]


def _connection_text(connection):
    expr = write_expr(connection.expr) if connection.expr is not None else ""
    if connection.port is None:
        return expr
    return f".{connection.port}({expr})"


def _always_lines(item, depth):
    pad = _INDENT * depth
    if item.sens_list:
        sens = " or ".join(_sens_text(s) for s in item.sens_list)
        header = f"{pad}always @({sens})"
    else:
        header = f"{pad}always @(*)"
    return [header] + _statement_lines(item.statement, depth + 1)


def _sens_text(item):
    if item.edge == "level":
        return write_expr(item.signal)
    return f"{item.edge} {write_expr(item.signal)}"


def _statement_lines(stmt, depth):
    pad = _INDENT * depth
    if isinstance(stmt, ast.Block):
        lines = [f"{_INDENT * (depth - 1)}begin"]
        for inner in stmt.statements:
            lines.extend(_statement_lines(inner, depth))
        lines.append(f"{_INDENT * (depth - 1)}end")
        return lines
    if isinstance(stmt, ast.BlockingAssign):
        return [f"{pad}{write_expr(stmt.lhs)} = {write_expr(stmt.rhs)};"]
    if isinstance(stmt, ast.NonblockingAssign):
        return [f"{pad}{write_expr(stmt.lhs)} <= {write_expr(stmt.rhs)};"]
    if isinstance(stmt, ast.If):
        lines = [f"{pad}if ({write_expr(stmt.cond)})"]
        lines.extend(_statement_lines(stmt.then_stmt, depth + 1))
        if stmt.else_stmt is not None:
            lines.append(f"{pad}else")
            lines.extend(_statement_lines(stmt.else_stmt, depth + 1))
        return lines
    if isinstance(stmt, ast.Case):
        lines = [f"{pad}{stmt.kind} ({write_expr(stmt.expr)})"]
        for case_item in stmt.items:
            if case_item.patterns:
                label = ", ".join(write_expr(p) for p in case_item.patterns)
            else:
                label = "default"
            lines.append(f"{pad}{_INDENT}{label}:")
            lines.extend(_statement_lines(case_item.statement, depth + 2))
        lines.append(f"{pad}endcase")
        return lines
    if isinstance(stmt, ast.For):
        init = _inline_assign_text(stmt.init)
        step = _inline_assign_text(stmt.step)
        lines = [f"{pad}for ({init}; {write_expr(stmt.cond)}; {step})"]
        lines.extend(_statement_lines(stmt.body, depth + 1))
        return lines
    raise TypeError(f"cannot write statement of type {type(stmt).__name__}")


def _inline_assign_text(stmt):
    return f"{write_expr(stmt.lhs)} = {write_expr(stmt.rhs)}"


def write_expr(expr):
    """Render an expression node as Verilog text."""
    if isinstance(expr, ast.Identifier):
        return expr.name
    if isinstance(expr, ast.IntConst):
        return str(expr.value)
    if isinstance(expr, ast.BasedConst):
        size = str(expr.width) if expr.width is not None else ""
        return f"{size}'{expr.base}{expr.digits}"
    if isinstance(expr, ast.StringConst):
        return f'"{expr.value}"'
    if isinstance(expr, ast.UnaryOp):
        return f"({expr.op}{write_expr(expr.operand)})"
    if isinstance(expr, ast.BinaryOp):
        return f"({write_expr(expr.left)} {expr.op} {write_expr(expr.right)})"
    if isinstance(expr, ast.Ternary):
        return (
            f"({write_expr(expr.cond)} ? {write_expr(expr.true_value)}"
            f" : {write_expr(expr.false_value)})"
        )
    if isinstance(expr, ast.Concat):
        return "{" + ", ".join(write_expr(p) for p in expr.parts) + "}"
    if isinstance(expr, ast.Repeat):
        return "{" + write_expr(expr.count) + "{" + write_expr(expr.value) + "}}"
    if isinstance(expr, ast.BitSelect):
        return f"{write_expr(expr.base)}[{write_expr(expr.index)}]"
    if isinstance(expr, ast.PartSelect):
        if expr.mode == ":":
            return (
                f"{write_expr(expr.base)}"
                f"[{write_expr(expr.left)}:{write_expr(expr.right)}]"
            )
        return (
            f"{write_expr(expr.base)}"
            f"[{write_expr(expr.left)} {expr.mode} {write_expr(expr.right)}]"
        )
    if isinstance(expr, ast.FunctionCall):
        args = ", ".join(write_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    raise TypeError(f"cannot write expression of type {type(expr).__name__}")
