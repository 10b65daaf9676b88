"""`python -m liftgirth` and the installed script: liftgirth.cli run as
`__main__`, so each command loads only the modules it runs."""

import runpy


def main():
    runpy.run_module("liftgirth.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
