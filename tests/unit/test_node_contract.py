"""The observable contract of the four IR node families.

The families are the ECL syntax tree (:mod:`repro.lang.ast`), the C
types (:mod:`repro.lang.types`), the Esterel kernel terms
(:mod:`repro.esterel.kernel`) and the automata
(:mod:`repro.efsm.machine`).  Their pickles are embedded in emitted
reactors and persisted by the artifact cache, their reprs feed golden
digests, and whole passes key dicts by them.  For one instance of every
class this file pins:

* the ``repr`` and the ``pickle.dumps`` bytes (as a digest);
* equality that ignores ``span``, and equal hashes for equal nodes (the
  hash of the tuple of compared fields, so dict and set orders keyed by
  nodes stay as they are);
* ``FrozenInstanceError`` on assignment and on deletion;
* a round trip through :mod:`repro.ecl.rename`.

The table was recorded before the node classes stopped being generated
by ``dataclasses``; a change that alters any entry fails here.  Run
``python tests/unit/test_node_contract.py`` to print the current table.
"""

import copy
import hashlib
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.ecl.module import KernelModule
from repro.ecl.rename import rename_identifiers, rewrite_name_reads
from repro.efsm import machine as m
from repro.esterel import kernel as k
from repro.lang import ast
from repro.lang import types as t
from repro.lang.source import Span

#: Classes of the four modules that are not IR nodes.
NOT_NODES = {t.Type, t.TypeTable}

SPAN = Span.point("contract.ecl", 3, 7)
OTHER_SPAN = Span.point("other.ecl", 9, 1)


def _ast_nodes(span):
    x = ast.Name(span=span, id="x")
    y = ast.Name(span=span, id="y")
    one = ast.IntLit(span=span, value=1)
    s = ast.SigRef(span=span, name="s")
    u = ast.SigRef(span=span, name="u")
    emit = ast.Emit(span=span, signal="s", value=x)
    block = ast.Block(span=span, body=(emit, ast.ExprStmt(span=span,
                                                          expr=y)))
    return [
        ast.Node(span=span),
        ast.Expr(span=span),
        one,
        ast.StrLit(span=span, value="a\tb"),
        x,
        ast.Unary(span=span, op="-", operand=x),
        ast.IncDec(span=span, op="--", target=x, postfix=False),
        ast.Binary(span=span, op="+", left=x, right=one),
        ast.Assign(span=span, op="+=", target=x, value=y),
        ast.Cond(span=span, cond=x, then=y, otherwise=one),
        ast.Call(span=span, func="f", args=(x, one)),
        ast.Index(span=span, base=x, index=one),
        ast.Member(span=span, base=x, name="field", arrow=True),
        ast.Cast(span=span, type=t.UCHAR, operand=y),
        ast.SizeofType(span=span, type=t.INT),
        ast.SizeofExpr(span=span, operand=x),
        ast.SigExpr(span=span),
        s,
        ast.SigNot(span=span, operand=s),
        ast.SigAnd(span=span, left=s, right=u),
        ast.SigOr(span=span, left=u, right=s),
        ast.Stmt(span=span),
        ast.ExprStmt(span=span, expr=x),
        ast.VarDecl(span=span, name="x", type=t.INT, init=one),
        ast.SignalDecl(span=span, name="s", type=t.PURE),
        block,
        ast.If(span=span, cond=x, then=emit, otherwise=block),
        ast.While(span=span, cond=x, body=block),
        ast.DoWhile(span=span, body=block, cond=y),
        ast.For(span=span, init=ast.ExprStmt(span=span, expr=x), cond=y,
                step=x, body=block),
        ast.Break(span=span),
        ast.Continue(span=span),
        ast.Return(span=span, value=x),
        emit,
        ast.Await(span=span, cond=s),
        ast.Halt(span=span),
        ast.Present(span=span, cond=s, then=emit, otherwise=block),
        ast.Abort(span=span, body=block, cond=s, handler=emit, weak=True),
        ast.Suspend(span=span, body=block, cond=u),
        ast.Par(span=span, branches=(emit, block)),
        ast.SignalParam(span=span, direction="output", name="s",
                        type=t.BOOL),
        ast.FuncParam(span=span, name="x", type=t.INT),
        ast.ModuleDecl(span=span, name="mod", signals=(
            ast.SignalParam(span=span, name="s", type=t.PURE),), body=block),
        ast.FuncDef(span=span, name="f", return_type=t.INT, params=(
            ast.FuncParam(span=span, name="x", type=t.INT),), body=block),
        ast.TypedefDecl(span=span, name="byte", type=t.UCHAR),
        ast.TagDecl(span=span, tag="pair", type=_struct()),
        ast.Program(span=span, items=(ast.TypedefDecl(span=span, name="b",
                                                      type=t.UCHAR),)),
    ]


def _struct():
    return t.StructType.build("pair", [("lo", t.UCHAR), ("hi", t.INT)])


def _type_nodes():
    return [
        t.IntType("short", 2, False),
        t.BoolType(),
        t.VoidType(),
        t.PureType(),
        t.PointerType(t.CHAR),
        t.ArrayType(t.USHORT, 5),
        t.Field("lo", t.UCHAR, 0),
        _struct(),
        t.UnionType.build("view", [("raw", t.ArrayType(t.UCHAR, 4)),
                                   ("word", t.UINT)]),
    ]


def _kernel_nodes():
    s = ast.SigRef(name="s")
    x = ast.Name(id="x")
    act = k.Action(ast.ExprStmt(expr=ast.Assign(target=x,
                                                value=ast.IntLit(value=2))))
    emit = k.Emit("o", x)
    body = k.Seq((emit, k.Pause(delta=True)))
    return [
        k.KStmt(),
        k.Nothing(),
        k.Pause(delta=True),
        k.Halt(),
        emit,
        act,
        k.IfData(x, emit, act),
        k.Present(s, emit, k.Halt()),
        body,
        k.Loop(body),
        k.Par((emit, body)),
        k.Trap(k.Seq((emit, k.Exit(0)))),
        k.Exit(2),
        k.Await(s),
        k.Abort(body, s, emit, True),
        k.Suspend(body, s),
        k.AwaitActive(s),
        k.AbortActive(body, s, None, False),
        k.SuspendActive(body, s),
        k.ParActive((None, body)),
    ]


def _machine_nodes():
    x = ast.Name(id="x")
    leaf = m.Leaf(3, True)
    tree = m.TestSignal("i", m.DoEmit("o", x, leaf),
                        m.TestData(x, m.DoAction(ast.ExprStmt(expr=x),
                                                 leaf), m.Leaf()))
    module = KernelModule(name="mod", params=(), body=k.Halt())
    efsm = m.Efsm("mod", [m.State(0, tree, k.Halt(), "s0")], 0, ("i",),
                  ("o",), (), module)
    return [
        leaf,
        tree.then,
        tree,
        tree.otherwise,
        tree.otherwise.then,
        m.State(1, leaf, k.Pause(), "s1"),
        efsm,
    ]


def instances(span=SPAN):
    """``{qualified class name: instance}``, one per node class."""
    nodes = (_ast_nodes(span) + _type_nodes() + _kernel_nodes()
             + _machine_nodes())
    table = {}
    for node in nodes:
        label = "%s.%s" % (type(node).__module__.rsplit(".", 1)[-1],
                           type(node).__qualname__)
        assert label not in table, label
        table[label] = node
    return table


def _module_classes():
    classes = set()
    for module in (ast, t, k, m):
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ ==
                    module.__name__ and value not in NOT_NODES):
                classes.add(value)
    return classes


def current_table():
    return {label: [repr(node), hashlib.md5(pickle.dumps(
        node, protocol=4)).hexdigest()]
        for label, node in sorted(instances().items())}


GOLDEN = {
    'ast.Abort':
        ["Abort(body=Block(body=(Emit(signal='s', value=Name(id='x')), ExprStmt(expr=Name(id='y')))), cond=SigRef(name='s'), handler=Emit(signal='s', value=Name(id='x')), weak=True)", '41016e7750a902c630ee11e345b9d076'],
    'ast.Assign':
        ["Assign(op='+=', target=Name(id='x'), value=Name(id='y'))", '9b5e4115e2fb5876e4bdc8210caf8770'],
    'ast.Await':
        ["Await(cond=SigRef(name='s'))", '64e4c9fe7d7f2a8f23e972e6f0ddd02c'],
    'ast.Binary':
        ["Binary(op='+', left=Name(id='x'), right=IntLit(value=1))", 'df6759730179c05e99420eef60ad81c2'],
    'ast.Block':
        ["Block(body=(Emit(signal='s', value=Name(id='x')), ExprStmt(expr=Name(id='y'))))", '948f7b1a9b930344a7c80f5a8fa2ba22'],
    'ast.Break':
        ['Break()', '15275ea3b6451972a8a6927aaf65836f'],
    'ast.Call':
        ["Call(func='f', args=(Name(id='x'), IntLit(value=1)))", '6207d483038a937223eb5a7540959a2d'],
    'ast.Cast':
        ["Cast(type=IntType(name='unsigned char', size=1, signed=False), operand=Name(id='y'))", '35f7cc672f9dc51ab26f7709c0d8c297'],
    'ast.Cond':
        ["Cond(cond=Name(id='x'), then=Name(id='y'), otherwise=IntLit(value=1))", 'b37bbf311e503fe4e897323b124eb7de'],
    'ast.Continue':
        ['Continue()', 'b1a0237e1fac8d440d48ecefef7ae284'],
    'ast.DoWhile':
        ["DoWhile(body=Block(body=(Emit(signal='s', value=Name(id='x')), ExprStmt(expr=Name(id='y')))), cond=Name(id='y'))", 'dbf40280c2675b01861ac9bc69d2f5df'],
    'ast.Emit':
        ["Emit(signal='s', value=Name(id='x'))", '599caf6c3ff8b743eb5d2d77aa0cfa88'],
    'ast.Expr':
        ['Expr()', '6c2fb960ebbafdc1a1e636095b399b3f'],
    'ast.ExprStmt':
        ["ExprStmt(expr=Name(id='x'))", 'f9ba8f02eb173583fef405facbb41929'],
    'ast.For':
        ["For(init=ExprStmt(expr=Name(id='x')), cond=Name(id='y'), step=Name(id='x'), body=Block(body=(Emit(signal='s', value=Name(id='x')), ExprStmt(expr=Name(id='y')))))", '6be76b7a42c3391bb1bedd9b9a7d8ae2'],
    'ast.FuncDef':
        ["FuncDef(name='f', return_type=IntType(name='int', size=4, signed=True), params=(FuncParam(name='x', type=IntType(name='int', size=4, signed=True)),), body=Block(body=(Emit(signal='s', value=Name(id='x')), ExprStmt(expr=Name(id='y')))))", '9bd31d47fddda027f5318b2b9a8da033'],
    'ast.FuncParam':
        ["FuncParam(name='x', type=IntType(name='int', size=4, signed=True))", '9ef05b820b27cb696a49552724a0e879'],
    'ast.Halt':
        ['Halt()', 'baf49686c0b327c01e8d82672efa08e4'],
    'ast.If':
        ["If(cond=Name(id='x'), then=Emit(signal='s', value=Name(id='x')), otherwise=Block(body=(Emit(signal='s', value=Name(id='x')), ExprStmt(expr=Name(id='y')))))", '8e578414b07644ca099d8afec547449e'],
    'ast.IncDec':
        ["IncDec(op='--', target=Name(id='x'), postfix=False)", '900260efccb3eeb0c647a5dbf70d8863'],
    'ast.Index':
        ["Index(base=Name(id='x'), index=IntLit(value=1))", '27d3a39bc64a9ba4442951318cc46a87'],
    'ast.IntLit':
        ['IntLit(value=1)', '1e8060c8aefe1cc68fd79eee52302188'],
    'ast.Member':
        ["Member(base=Name(id='x'), name='field', arrow=True)", '246a1e09241b840e4878357f82c02712'],
    'ast.ModuleDecl':
        ["ModuleDecl(name='mod', signals=(SignalParam(direction='input', name='s', type=PureType(size=0)),), body=Block(body=(Emit(signal='s', value=Name(id='x')), ExprStmt(expr=Name(id='y')))))", '2311a0d0bb7ceea4c91907a89fe70293'],
    'ast.Name':
        ["Name(id='x')", '0ecf0ed0bde6ca16d917ba9573cb53dc'],
    'ast.Node':
        ['Node()', 'a726a3aee0237f0f83080ce484eab6bf'],
    'ast.Par':
        ["Par(branches=(Emit(signal='s', value=Name(id='x')), Block(body=(Emit(signal='s', value=Name(id='x')), ExprStmt(expr=Name(id='y'))))))", 'ab0f7c99ea04ff0d7f079046e0489edf'],
    'ast.Present':
        ["Present(cond=SigRef(name='s'), then=Emit(signal='s', value=Name(id='x')), otherwise=Block(body=(Emit(signal='s', value=Name(id='x')), ExprStmt(expr=Name(id='y')))))", '906ed38ec9ad1361c2bfed25647a7935'],
    'ast.Program':
        ["Program(items=(TypedefDecl(name='b', type=IntType(name='unsigned char', size=1, signed=False)),))", '5edf1d8782d629958a5dfffd937e2c77'],
    'ast.Return':
        ["Return(value=Name(id='x'))", '645e93c6e6a1566ff405c18bb4b9fe0f'],
    'ast.SigAnd':
        ["SigAnd(left=SigRef(name='s'), right=SigRef(name='u'))", 'ce81181931114d35890a04d1d957065d'],
    'ast.SigExpr':
        ['SigExpr()', 'b01a4da28042ff0a64c56547eb6cb0e4'],
    'ast.SigNot':
        ["SigNot(operand=SigRef(name='s'))", '162d44aecf8027e8d0fd31fd657f5d0f'],
    'ast.SigOr':
        ["SigOr(left=SigRef(name='u'), right=SigRef(name='s'))", '41f90d57289695178723162944884d59'],
    'ast.SigRef':
        ["SigRef(name='s')", '89971636b63b76e6300551b764fa0389'],
    'ast.SignalDecl':
        ["SignalDecl(name='s', type=PureType(size=0))", '437f638a8e5cefbc3d7fde36eab1f972'],
    'ast.SignalParam':
        ["SignalParam(direction='output', name='s', type=BoolType(size=1))", '5d9e1662e9b7356ddbadf28467246243'],
    'ast.SizeofExpr':
        ["SizeofExpr(operand=Name(id='x'))", '22919605778ad6d37c3f69c5fddb47c3'],
    'ast.SizeofType':
        ["SizeofType(type=IntType(name='int', size=4, signed=True))", 'b632cc8af7ef269150f6be4af0cb99b5'],
    'ast.Stmt':
        ['Stmt()', 'b9d1d4664083a8978dccfd31779cded7'],
    'ast.StrLit':
        ["StrLit(value='a\\tb')", 'c90b70341f199d3ebad352a5e3b3f01f'],
    'ast.Suspend':
        ["Suspend(body=Block(body=(Emit(signal='s', value=Name(id='x')), ExprStmt(expr=Name(id='y')))), cond=SigRef(name='u'))", 'cdd939ca35aac640e81c4e2cdc6767b6'],
    'ast.TagDecl':
        ["TagDecl(tag='pair', type=StructType(tag='pair', fields=(Field(name='lo', type=IntType(name='unsigned char', size=1, signed=False), offset=0), Field(name='hi', type=IntType(name='int', size=4, signed=True), offset=4)), size=8, align=4))", '976146e56c57a20523530718b3a207e1'],
    'ast.TypedefDecl':
        ["TypedefDecl(name='byte', type=IntType(name='unsigned char', size=1, signed=False))", '7dd43d5173b86d1da2b8917d4ce767b1'],
    'ast.Unary':
        ["Unary(op='-', operand=Name(id='x'))", '059a4cdc98da4f3e6a257379603ffa3f'],
    'ast.VarDecl':
        ["VarDecl(name='x', type=IntType(name='int', size=4, signed=True), init=IntLit(value=1))", '69d6b31ce4292567f55933ce71e40518'],
    'ast.While':
        ["While(cond=Name(id='x'), body=Block(body=(Emit(signal='s', value=Name(id='x')), ExprStmt(expr=Name(id='y')))))", 'c47d4a4261ced5088d9187c9f5ba9b79'],
    'kernel.Abort':
        ["Abort(body=Seq(stmts=(Emit(signal='o', value=Name(id='x')), Pause(delta=True))), cond=SigRef(name='s'), handler=Emit(signal='o', value=Name(id='x')), weak=True)", '7b03488ff3ce70ccb2b691f273c1fd87'],
    'kernel.AbortActive':
        ["AbortActive(body=Seq(stmts=(Emit(signal='o', value=Name(id='x')), Pause(delta=True))), cond=SigRef(name='s'), handler=None, weak=False)", '772796f0adb3a1191f137359f492f909'],
    'kernel.Action':
        ["Action(stmt=ExprStmt(expr=Assign(op='=', target=Name(id='x'), value=IntLit(value=2))))", '3353849d903bb906f193635034bae28c'],
    'kernel.Await':
        ["Await(cond=SigRef(name='s'))", '640f1f4e4938c76b289c7dda4dab5ee6'],
    'kernel.AwaitActive':
        ["AwaitActive(cond=SigRef(name='s'))", 'c36fe1fadf1f16f457badce4f516eea7'],
    'kernel.Emit':
        ["Emit(signal='o', value=Name(id='x'))", '971cbefa43921e8ea42f72e19fd523e9'],
    'kernel.Exit':
        ['Exit(depth=2)', '4eef74e370939f4a9d82038eee3f9dee'],
    'kernel.Halt':
        ['Halt()', 'b7545d7447838a6d30446225bb738f52'],
    'kernel.IfData':
        ["IfData(cond=Name(id='x'), then=Emit(signal='o', value=Name(id='x')), otherwise=Action(stmt=ExprStmt(expr=Assign(op='=', target=Name(id='x'), value=IntLit(value=2)))))", 'a020e1dbdefa574c4556211675446603'],
    'kernel.KStmt':
        ['KStmt()', '464ecaaf7cd73e8b2a41f5f2722a64c4'],
    'kernel.Loop':
        ["Loop(body=Seq(stmts=(Emit(signal='o', value=Name(id='x')), Pause(delta=True))))", '82681b062fbeb3570acf1acf1eed25e6'],
    'kernel.Nothing':
        ['Nothing()', '8a805063371912c13c951ba2938fe9fe'],
    'kernel.Par':
        ["Par(branches=(Emit(signal='o', value=Name(id='x')), Seq(stmts=(Emit(signal='o', value=Name(id='x')), Pause(delta=True)))))", 'd0e4d53ea78a3be3ebbf2fe2fb5da04b'],
    'kernel.ParActive':
        ["ParActive(branches=(None, Seq(stmts=(Emit(signal='o', value=Name(id='x')), Pause(delta=True)))))", '2b04d65ec07e7d2388d4780d68879127'],
    'kernel.Pause':
        ['Pause(delta=True)', '0807070afa4acde030886e10e68c00e3'],
    'kernel.Present':
        ["Present(cond=SigRef(name='s'), then=Emit(signal='o', value=Name(id='x')), otherwise=Halt())", 'ac868594a584716aa29ef79b1293e062'],
    'kernel.Seq':
        ["Seq(stmts=(Emit(signal='o', value=Name(id='x')), Pause(delta=True)))", '352667753cda34ec18f1adbfce76dd6e'],
    'kernel.Suspend':
        ["Suspend(body=Seq(stmts=(Emit(signal='o', value=Name(id='x')), Pause(delta=True))), cond=SigRef(name='s'))", '7f571533076237a303dbd72d8216d2eb'],
    'kernel.SuspendActive':
        ["SuspendActive(body=Seq(stmts=(Emit(signal='o', value=Name(id='x')), Pause(delta=True))), cond=SigRef(name='s'))", '53329f4f439f47f2f5095332d667e705'],
    'kernel.Trap':
        ["Trap(body=Seq(stmts=(Emit(signal='o', value=Name(id='x')), Exit(depth=0))))", '3f2e203577aa05dd94c594919b77b101'],
    'machine.DoAction':
        ["DoAction(stmt=ExprStmt(expr=Name(id='x')), next=Leaf(target=3, delta=True))", 'c1d116590086fd087785486e8ef63b66'],
    'machine.DoEmit':
        ["DoEmit(signal='o', value=Name(id='x'), next=Leaf(target=3, delta=True))", '0daf754a071a1e8dcbc248fe0dfe55c8'],
    'machine.Efsm':
        ["Efsm(name='mod', states=[State(index=0, reaction=TestSignal(signal='i', then=DoEmit(signal='o', value=Name(id='x'), next=Leaf(target=3, delta=True)), otherwise=TestData(cond=Name(id='x'), then=DoAction(stmt=ExprStmt(expr=Name(id='x')), next=Leaf(target=3, delta=True)), otherwise=Leaf(target=-1, delta=False))), residue=Halt(), label='s0')], initial=0, inputs=('i',), outputs=('o',), locals=(), module=KernelModule(name='mod', params=(), local_signals=[], variables=[], body=Halt(), data_blocks=[], functions={}, types=None, source=None, inlined_instances=[]))", 'e739b8a101e7fe36c9004daca4e62101'],
    'machine.Leaf':
        ['Leaf(target=3, delta=True)', '2cb0551808fdf866488bd595c4466742'],
    'machine.State':
        ["State(index=1, reaction=Leaf(target=3, delta=True), residue=Pause(delta=False), label='s1')", 'f0d01d05843a5fdbd8116255a3c9e9fe'],
    'machine.TestData':
        ["TestData(cond=Name(id='x'), then=DoAction(stmt=ExprStmt(expr=Name(id='x')), next=Leaf(target=3, delta=True)), otherwise=Leaf(target=-1, delta=False))", '1a42dcd8d7b94be930bb86f20fd2eb79'],
    'machine.TestSignal':
        ["TestSignal(signal='i', then=DoEmit(signal='o', value=Name(id='x'), next=Leaf(target=3, delta=True)), otherwise=TestData(cond=Name(id='x'), then=DoAction(stmt=ExprStmt(expr=Name(id='x')), next=Leaf(target=3, delta=True)), otherwise=Leaf(target=-1, delta=False)))", '2f74d4e2877c44314f02f007895d240a'],
    'types.ArrayType':
        ["ArrayType(element=IntType(name='unsigned short', size=2, signed=False), length=5)", '09e31d4e6b8d051a90f48dc53ca6bf93'],
    'types.BoolType':
        ['BoolType(size=1)', 'fc793bc27a7afa77cc3a202cb83148a5'],
    'types.Field':
        ["Field(name='lo', type=IntType(name='unsigned char', size=1, signed=False), offset=0)", 'daf15cac0f514c0e231ba19cda268a69'],
    'types.IntType':
        ["IntType(name='short', size=2, signed=False)", '781e0b84edea1d6c275ebbe1eb891242'],
    'types.PointerType':
        ["PointerType(target=IntType(name='char', size=1, signed=True))", '20ad8287492dd14a9a2836a63ca88255'],
    'types.PureType':
        ['PureType(size=0)', '96ddda81686d68528a249630bac8ec68'],
    'types.StructType':
        ["StructType(tag='pair', fields=(Field(name='lo', type=IntType(name='unsigned char', size=1, signed=False), offset=0), Field(name='hi', type=IntType(name='int', size=4, signed=True), offset=4)), size=8, align=4)", 'b4948bcaddb0335549770c13f35c43b7'],
    'types.UnionType':
        ["UnionType(tag='view', fields=(Field(name='raw', type=ArrayType(element=IntType(name='unsigned char', size=1, signed=False), length=4), offset=0), Field(name='word', type=IntType(name='unsigned int', size=4, signed=False), offset=0)), size=4, align=4)", '811f0ae3fc89eab25e0323f9a2f2df9b'],
    'types.VoidType':
        ['VoidType(size=0)', '64831d3e0bf5dbe7d0e46127e2b0ecc7'],
}


@pytest.fixture(scope="module")
def table():
    return current_table()


def test_every_node_class_has_an_instance():
    made = {type(node) for node in instances().values()}
    assert made == _module_classes()


def test_every_instance_has_a_golden_entry(table):
    assert sorted(table) == sorted(GOLDEN)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_repr_and_pickle_bytes_are_unchanged(table, label):
    assert table[label] == GOLDEN[label]


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_pickle_round_trip_is_equal(label):
    node = instances()[label]
    loaded = pickle.loads(pickle.dumps(node))
    assert loaded == node and repr(loaded) == repr(node)
    assert copy.deepcopy(node) == node and copy.copy(node) == node


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_equality_ignores_span(label):
    node = instances()[label]
    twin = instances(OTHER_SPAN)[label]
    assert node is not twin
    assert node == twin and not node != twin
    assert repr(node) == repr(twin)
    if getattr(node, "span", None) is not None:
        assert node.span != twin.span


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_equal_nodes_hash_equal(label):
    node = instances()[label]
    twin = instances(OTHER_SPAN)[label]
    if type(node).__hash__ is None:
        with pytest.raises(TypeError):
            hash(node)
        return
    assert hash(node) == hash(twin)
    assert {node: 1}[twin] == 1


def test_classes_of_different_type_are_unequal():
    assert ast.Break() != ast.Continue()
    assert k.Nothing() != k.Halt()
    assert t.VoidType() != t.PureType()
    assert m.Leaf() != m.DoEmit()
    assert ast.Name(id="x") != "x"
    assert (ast.Name(id="x") == object()) is False


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_frozen_nodes_refuse_assignment_and_deletion(label):
    node = instances()[label]
    if isinstance(node, (m.State, m.Efsm)):
        node.label = "changed"  # the mutable automaton records
        assert node.label == "changed"
        return
    name = "span" if isinstance(node, ast.Node) else "anything"
    with pytest.raises(FrozenInstanceError):
        setattr(node, name, None)
    with pytest.raises(FrozenInstanceError):
        delattr(node, name)


def test_hash_is_the_hash_of_the_compared_fields():
    assert hash(ast.Name(id="x")) == hash(("x",))
    assert hash(ast.Break()) == hash(())
    assert hash(ast.Binary(op="+", left=ast.Name(id="a"),
                           right=ast.IntLit(value=1))) == hash(
        ("+", ast.Name(id="a"), ast.IntLit(value=1)))
    assert hash(k.Exit(2)) == hash((2,))
    assert hash(k.Nothing()) == hash(())
    assert hash(t.IntType("int", 4, True)) == hash(("int", 4, True))
    struct = _struct()
    assert hash(struct) == hash((struct.tag, struct.fields, struct.size,
                                 struct.align))
    assert hash(m.Leaf(3, True)) == hash((3, True))


def test_rename_round_trip():
    mapping = {"x": "inst_x", "s": "inst_s"}
    back = {new: old for old, new in mapping.items()}
    renamed_any = 0
    for label, node in instances().items():
        if not isinstance(node, ast.Node):
            assert rename_identifiers(node, mapping) is node
            continue
        renamed = rename_identifiers(node, mapping)
        restored = rename_identifiers(renamed, back)
        assert restored == node, label
        assert type(renamed) is type(node)
        assert renamed.span == node.span
        if renamed != node:
            renamed_any += 1
            assert "inst_" in repr(renamed), label
        else:
            assert "inst_" not in repr(renamed), label
    assert renamed_any >= 20


def test_rename_keeps_untouched_subtrees_and_rewrites_reads():
    node = instances()["ast.If"]
    assert rename_identifiers(node, {"unused": "other"}) == node
    renamed = rename_identifiers(node, {"y": "z"})
    assert renamed.then == node.then
    assert renamed.otherwise.body[1].expr == ast.Name(id="z")
    ctx = ast.Member(base=ast.Name(id="ctx"), name="x", arrow=True)
    rewritten = rewrite_name_reads(
        instances()["ast.Binary"],
        lambda name: ctx if name == "x" else None)
    assert rewritten.left == ctx and rewritten.right == ast.IntLit(value=1)
    assert rewritten.span == SPAN


if __name__ == "__main__":
    for label, value in current_table().items():
        print("    %r:\n        %r," % (label, value))
