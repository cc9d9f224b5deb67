"""Legacy shim for installing offline without the `wheel` package.

`pip install -e .` needs `wheel` and fails without it (`invalid command
'bdist_wheel'`); pip 23.2 refuses `--no-use-pep517` for the same reason.
`python setup.py develop` needs only setuptools and this file."""
from setuptools import setup

setup()
