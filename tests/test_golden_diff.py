import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden_diff", ROOT / "tools" / "golden_diff.py")
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)


def write_tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


class TestGoldenDiff:
    def test_identical_trees_report_nothing(self, tmp_path):
        files = {"fit/fits.csv": "id,x\na,1.0\n", "model/model.ckpt": "bytes"}
        a = write_tree(tmp_path / "a", files)
        b = write_tree(tmp_path / "b", files)
        assert golden_diff.compare(a, b) == []

    def test_lists_files_and_column_differences(self, tmp_path):
        a = write_tree(tmp_path / "a", {
            "fit/fits.csv": "id,x,label\na,1.0,u\nb,-2.0,v\nc,0.0,w\n",
            "plot/p.svg": "<svg/>", "old.txt": "x"})
        b = write_tree(tmp_path / "b", {
            "fit/fits.csv": "id,x,label\na,1.5,u\nb,-2.0,v\nc,-0.0,z\n",
            "plot/p.svg": "<svg />", "new.txt": "x"})
        assert golden_diff.compare(a, b) == [
            f"only in {a}: old.txt",
            f"only in {b}: new.txt",
            "differ: fit/fits.csv",
            "  2 of 3 rows differ",
            "  x: 2 values, max abs 0.5, max rel 0.333",
            "  label: 1 cells differ",
            "differ: plot/p.svg",
        ]

    def test_csv_shape_changes_are_named(self, tmp_path):
        a = write_tree(tmp_path / "a", {"h.csv": "id,x\na,1\n", "n.csv": "id\na\n"})
        b = write_tree(tmp_path / "b", {"h.csv": "id,y\na,1\n", "n.csv": "id\na\nb\n"})
        assert golden_diff.compare(a, b) == ["differ: h.csv", "  headers differ",
                                             "differ: n.csv", "  1 rows against 2"]
